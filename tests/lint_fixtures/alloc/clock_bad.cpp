// mfa_lint golden fixture: solver-clock in an /alloc/ path (GP+A and
// Algorithm 1 run on every server event and must replay identically).
//
// Expected finding (exact line asserted by lint_test.cpp):
//   line 7   rand() in an allocator path

int pick_fpga(int fpgas) { return rand() % fpgas; }
