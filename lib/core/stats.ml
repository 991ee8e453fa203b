(** The engine's work counts (test cases run, validation reruns) and the
    session's telemetry registry.  Every stats instance carries an
    {!Amulet_obs.Obs.t} that the engine threads down into the simulator
    ([uarch.*] hardware counters, [engine.time.*] timers); the paper's
    Table 2 time breakdown is read from those timers. *)

type t = {
  mutable test_cases : int;
  mutable validations : int;
  metrics : Amulet_obs.Obs.t;
}

let create ?(metrics = Amulet_obs.Obs.noop) () =
  { test_cases = 0; validations = 0; metrics }

let registry t = t.metrics
let count_test_case t = t.test_cases <- t.test_cases + 1
let count_validation t = t.validations <- t.validations + 1
let test_cases t = t.test_cases
let validations t = t.validations
