(** Order statistics over samples. Percentiles use the nearest-rank rule
    with exact integer ranks (basis points), so a percentile never
    depends on float rounding. *)

val median : float list -> float
(** Mean of the two middle samples for an even count; [nan] when
    empty. *)

val percentile : bp:int -> float list -> float
(** [percentile ~bp xs] is the sample at nearest rank
    [ceil (bp * n / 10_000)] — [~bp:9900] is p99. [nan] when empty. *)

val beyond : bp:int -> int -> int
(** Samples ranked strictly above the [bp] percentile of [n] samples. *)

type tail = {
  bp : int;  (** the percentile, in basis points *)
  value : float;
  beyond : int;  (** samples above it (at least 10) *)
  count : int;  (** all samples *)
}

val ladder : int list
(** The percentiles the tail helper tries, highest first: p99.99,
    p99.9, p99, p95, p90, p75, p50. *)

val tail : float list -> tail option
(** The highest percentile of {!ladder} that still has at least ten
    samples beyond it, with the sample count; [None] below 20 samples. *)

val pct_name : int -> string
(** ["p99"], ["p99.9"], ... for a basis-point percentile. *)
