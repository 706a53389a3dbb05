(** One benchmark run: set-up, timed rounds until the time budget is
    spent, the check runs, and the metrics. *)

type inputs = {
  oltp : Oltp.input array;  (** [Workload.batches] program batches *)
  audit : Audit.input array;  (** [Audit.shape.inputs] audit inputs *)
}

val setup : Workload.t -> seed:int -> inputs
(** Generate every input from the seed and warm up: one leg on half
    of the first batch, a short certification and a few
    classifications. *)

type round = {
  legs : Oltp.leg list;  (** one per policy, in {!Oltp.policies} order *)
  certs : Audit.cert list;  (** [Conflict], then [Mv_conflict] *)
  census : Audit.census;
  wall_s : float;
}

val round :
  ?probe:Probe.t -> ?recheck:int ref -> Workload.t -> inputs -> index:int -> round
(** Round [index]: every policy's leg on batch
    [index mod Workload.batches], both
    certification modes and the census of the audit input
    [index mod Array.length inputs.audit]. *)

type result = {
  metrics : Out.metric list;
  notes : string list;  (** readable lines: sample counts, tails, shares *)
  attempted : int;
  failed : int;
  tracer : Tracer.t option;  (** the traced rounds' spans *)
}

val end_to_end_names : (string * string) list
(** Every end-to-end metric, with its unit, in output order. *)

val per_layer_names : (string * string) list

val run :
  ?log:(string -> unit) ->
  Workload.t ->
  seed:int ->
  seconds:float ->
  trace:bool ->
  result
(** [setup] five times (the median is [setup_s]), then rounds until
    [seconds] have passed and at least three ran — untraced
    rounds for the end-to-end metrics, or untraced and traced rounds
    alternating for the per-layer metrics and the tracing overhead —
    then one [~prov] check run per policy. [log] receives a line per
    round. *)
