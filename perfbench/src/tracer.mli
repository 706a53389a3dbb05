(** Bench-side spans around the calls the benchmark makes into each
    layer.

    Spans go to an {!Mvcc_obs.Span} ring (parent = the enclosing span)
    for export, and each closing span also folds into a per-name
    accumulator — total time, self time (duration minus the time its
    child spans and timed calls cover) and count — from which the
    per-layer metrics are derived. Accumulators do not depend on the
    ring's capacity. *)

type t

val create : unit -> t

val span : ?keep:bool -> t -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] inside a span named [name]. With
    [~keep:true] every duration is also kept for {!samples}. *)

type acc
(** A named accumulator, looked up once. *)

val acc : t -> string -> acc

val timed : t -> acc -> (unit -> 'a) -> 'a
(** [timed t a f] runs [f] between one pair of clock reads and folds
    the duration into [a] and into the enclosing span's children, with
    no ring span and no kept sample: for callbacks a layer makes per
    tick or per log record, where a full span would cost more than the
    call it measures. *)

val total : t -> string -> float
(** Summed durations of the named spans, in s (0 if none closed). *)

val self : t -> string -> float
(** Summed self time of the named spans, in s. *)

val count : t -> string -> int

val samples : t -> string -> float list
(** Every duration of the named span, in s, when its spans were opened
    with [~keep:true]; else empty. *)

val write_jsonl : t -> string -> unit
(** Export the retained spans as JSON lines. *)
