(** The audit part of a round, with no engine involved.

    Certification: a long random interleaving of 8-step transactions
    over Zipf-skewed entities, fed step by step through a [Certifier]
    in [Conflict] and in [Mv_conflict] mode, each feed timed; the last
    step goes through [feed_explained] and its witness to the
    independent [Checker].

    Classification: a census of 7-transaction schedules through
    [Report.make], each report's memberships checked with
    [Topography.consistent] and its VSR verdict re-derived through
    [Vsr.decide_sat], whose witness goes to the [Checker]. *)

type shape = {
  inputs : int;  (** distinct inputs the rounds cycle through *)
  cert_txns : int;  (** transactions of the certified interleaving *)
  cert_entities : int;
  cert_theta : float;
  cert_read_fraction : float;
  classify_count : int;  (** schedules in the census *)
  classify_entities : int;
}

val steps_per_txn : int
val classify_txns : int

val classify_min_steps : int
val classify_max_steps : int
(** Steps per transaction of a census schedule: 2 to 4. *)

type input = {
  cert : Mvcc_core.Step.t array;
  census : Mvcc_core.Schedule.t list;
}

val generate : shape -> seed:int -> input

type cert = {
  mode : Mvcc_online.Certifier.mode;
  steps : int;
  wall_s : float;  (** the feed loop, every step *)
  feed_s : float array;  (** each feed call, in step order *)
  cert_failed : int;  (** 1 when the checker refutes the final witness *)
}

val certify : ?probe:Probe.t -> Mvcc_core.Step.t array -> Mvcc_online.Certifier.mode -> cert

val mode_name : Mvcc_online.Certifier.mode -> string
(** ["csr"] or ["mvcsr"]. *)

type census = {
  schedules : int;
  report_s : float;  (** summed [Report.make] time *)
  census_failed : int;
}

val classify : ?probe:Probe.t -> ?recheck:int ref -> Mvcc_core.Schedule.t list -> census
(** A schedule fails when its report violates [Topography.consistent],
    when the polygraph and SAT VSR verdicts disagree, or when the
    checker refutes the SAT witness ([Too_large] is no refutation).
    Traced, every class is also decided on a fresh context. See
    {!schedule_failed} for [recheck]. *)

val schedule_failed :
  ?recheck:int ref ->
  Mvcc_classes.Report.t -> bool * Mvcc_provenance.Witness.t -> bool
(** The per-schedule check of {!classify}, given the report and the
    SAT route's verdict and witness. Acceptance witnesses are always
    checked; a rejection's exhausted-search certificate makes the
    checker repeat an exponential search (about 50 ms at 7
    transactions), so rejections are checked only while the [recheck]
    budget (default unbounded) lasts, each check spending one. *)
