//! ASCII Gantt rendering for examples and debugging.

use crate::Schedule;

/// The widest chart [`render_gantt`] draws, in columns. The chart holds
/// `m × width` cells, so an unbounded width is an unbounded allocation.
pub const MAX_GANTT_WIDTH: usize = 1000;

/// Renders a schedule as an ASCII Gantt chart: one row per processor,
/// time flowing left to right over `width` columns (clamped to
/// `10..=`[`MAX_GANTT_WIDTH`]), each cell showing the task occupying
/// the processor at that instant (`.` for idle). Tasks are labelled by
/// id modulo an alphanumeric alphabet, so charts are only unambiguous
/// for small demos — which is their purpose.
pub fn render_gantt(schedule: &Schedule, width: usize) -> String {
    const ALPHABET: &[u8] = b"0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
    let width = width.clamp(10, MAX_GANTT_WIDTH);
    let horizon = schedule.makespan();
    let m = schedule.procs();
    if horizon <= 0.0 || schedule.is_empty() {
        return format!("(empty schedule on {m} processors)\n");
    }
    let mut grid = vec![vec![b'.'; width]; m];
    for p in schedule.placements() {
        let c0 = ((p.start / horizon) * width as f64).floor() as usize;
        let c1 = ((p.completion() / horizon) * width as f64).ceil() as usize;
        let c1 = c1.clamp(c0 + 1, width);
        let label = ALPHABET[p.task.index() % ALPHABET.len()];
        for q in &p.procs {
            for cell in grid[q as usize][c0..c1].iter_mut() {
                *cell = label;
            }
        }
    }
    let mut out = String::with_capacity((width + 16) * (m + 2));
    out.push_str(&format!("t = 0 {:>w$.2}\n", horizon, w = width));
    for (q, row) in grid.iter().enumerate() {
        out.push_str(&format!("p{q:<3} |"));
        out.extend(row.iter().map(|&cell| char::from(cell)));
        out.push_str("|\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Placement;
    use demt_model::TaskId;

    #[test]
    fn renders_tasks_and_idle_time() {
        let mut s = Schedule::new(2);
        s.push(Placement {
            task: TaskId(0),
            start: 0.0,
            duration: 5.0,
            procs: vec![0].into(),
        });
        s.push(Placement {
            task: TaskId(1),
            start: 5.0,
            duration: 5.0,
            procs: vec![0, 1].into(),
        });
        let g = render_gantt(&s, 20);
        assert!(g.contains('0'), "{g}");
        assert!(g.contains('1'), "{g}");
        assert!(g.contains('.'), "processor 1 idles early:\n{g}");
        assert_eq!(g.lines().count(), 3);
    }

    #[test]
    fn empty_schedule_renders_placeholder() {
        let s = Schedule::new(3);
        assert!(render_gantt(&s, 40).contains("empty schedule"));
    }

    #[test]
    fn every_processor_gets_a_row() {
        let mut s = Schedule::new(5);
        s.push(Placement {
            task: TaskId(0),
            start: 0.0,
            duration: 1.0,
            procs: vec![4].into(),
        });
        let g = render_gantt(&s, 12);
        assert_eq!(g.lines().count(), 6);
        assert!(g.lines().last().unwrap().contains('0'));
    }

    #[test]
    fn width_is_clamped_to_the_cap() {
        let mut s = Schedule::new(1);
        s.push(Placement {
            task: TaskId(0),
            start: 0.0,
            duration: 1.0,
            procs: vec![0].into(),
        });
        let row = |w| render_gantt(&s, w).lines().nth(1).unwrap().len();
        assert_eq!(row(MAX_GANTT_WIDTH + 1), row(MAX_GANTT_WIDTH));
        assert_eq!(row(MAX_GANTT_WIDTH), "p0   ||".len() + MAX_GANTT_WIDTH);
    }
}
