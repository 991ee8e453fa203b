(** The executor's testing semantics (paper §3.2, C3).  {!Engine} runs
    test cases under either mode.

    - [Naive] starts {e every input} from pristine post-boot state (clean
      caches, reset predictors);
    - [Opt] reuses one simulator per {e program}, overwrites registers and
      memory in place between inputs, and primes the L1D before each input
      per the defense's harness style.  Predictor state persists across
      inputs, which widens prediction variety but requires violation
      validation (see {!Fuzzer}). *)

type mode = Naive | Opt

val mode_name : mode -> string
