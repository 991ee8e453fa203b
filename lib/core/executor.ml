(** The executor's testing semantics (paper §3.2, C3): [Naive] starts every
    input from pristine post-boot state; [Opt] reuses one simulator per
    program and primes the L1D before each input.  {!Engine} runs test
    cases under either mode. *)

type mode = Naive | Opt

let mode_name = function Naive -> "naive" | Opt -> "opt"
