(** Monotonic wall-clock time, in seconds, from the nanosecond counter. *)

val now : unit -> float

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f] and returns its result with its duration in s. *)
