(** The benchmark's workloads. Every workload runs the same round — the
    OLTP part ({!Oltp}) and the audit part ({!Audit}) — at its own
    shape, so every metric is measured on every workload: the heavy
    part is the one the workload is named for, the other part is the
    light reference of the same layers. *)

type t = { name : string; oltp : Oltp.shape; audit : Audit.shape }

val batches : int
(** OLTP program batches generated per run. Round [i] runs batch
    [i mod batches]: successive rounds measure different inputs, so a
    run averages over many batches rather than repeating one. *)

val all : t list
val find : string -> t option

val tiny : t -> t
(** The same workload shrunk to a few transactions, steps and schedules
    — for the self-tests. *)

val describe : t -> string list
(** The workload's shape, one fact per line. *)
