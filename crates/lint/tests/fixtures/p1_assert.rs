// Known-bad fixture for the assert family under P1 and P2: each
// assert-family macro in library code is a P1 site, and a pub fn that
// calls such a fn is a P2 finding. `debug_assert!` compiles out of
// release builds and is not a site. Never compiled; read by
// crates/lint/tests/rules.rs.
pub fn checked(x: u32) -> u32 {
    assert!(x > 0, "x must be positive");
    x
}

pub fn paired(a: u32, b: u32) {
    assert_eq!(a, b);
    assert_ne!(a, 0);
}

pub fn never(x: u32) -> u32 {
    match x {
        0 => 1,
        _ => unreachable!(),
    }
}

pub fn debug_only(x: u32) -> u32 {
    debug_assert!(x > 0);
    x
}

pub fn caller(x: u32) -> u32 {
    checked(x) + debug_only(x)
}
