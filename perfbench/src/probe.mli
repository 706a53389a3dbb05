(** What a traced run collects: bench-side spans ({!Tracer}), the
    program's own {!Mvcc_obs.Sink} metric registries attached to the
    engine, the WAL writers, the followers and the certifiers, and
    bench-side tallies of values read off the layers' results. *)

type t = {
  tr : Tracer.t;
  engine : Mvcc_obs.Metrics.t;  (** every [Engine.run] *)
  wal : (string, Mvcc_obs.Metrics.t) Hashtbl.t;  (** per policy *)
  follower : Mvcc_obs.Metrics.t;
  cert : (string, Mvcc_obs.Metrics.t) Hashtbl.t;  (** per certifier mode *)
  tallies : (string, float) Hashtbl.t;
}

val create : unit -> t

val registry : (string, Mvcc_obs.Metrics.t) Hashtbl.t -> string -> Mvcc_obs.Metrics.t
(** The registry under a key, created on first use. *)

val sink : Mvcc_obs.Metrics.t -> Mvcc_obs.Sink.t
(** A sink carrying only the registry (no trace ring, no span ring). *)

val tally : t -> string -> float -> unit
(** Add to a bench-side tally. *)

val tallied : t -> string -> float

val span : ?keep:bool -> t option -> string -> (unit -> 'a) -> 'a
(** {!Tracer.span} on the probe's tracer; exactly [f ()], reading no
    clock, without a probe. *)
