(** The OLTP part of a round: one batch of generated programs through
    [Engine.run] under each policy, with the production configuration
    (two cores, two client queues, adaptive batching, off-loop
    read-only snapshots, GC, a group-commit WAL and periodic
    checkpoints), followed by the durability tail — the forced log
    shipped boundary by boundary to a [Follower], then recovered with
    [Recovery.recover] — and the output checks. *)

type shape = {
  n_txns : int;  (** programs admitted at once: the closed loop's concurrency *)
  n_entities : int;
  theta : float;  (** Zipf skew of entity choice *)
  read_fraction : float;  (** share of read-only programs *)
  mix_rounds : int;  (** [Mix] rounds per write *)
  wal_commits : int;  (** group-commit window: force every this many commits *)
  snapshot_every : int;  (** checkpoint every this many commits *)
  max_ticks : int;  (** the fixed tick budget of one run *)
}

val policies : Mvcc_engine.Engine.policy list
val cores : int
val client_queues : int

val reads_per_txn : int
(** Reads of a read-only program. *)

val writes_per_txn : int
(** Read-modify-writes of a read-write program. *)

type input = {
  initial : (string * int) list;
  programs : Mvcc_engine.Program.t list;
  seed : int;
}

val generate : shape -> seed:int -> input

type leg = {
  policy : Mvcc_engine.Engine.policy;
  submitted : int;
  commits : int;
  run_s : float;  (** [Engine.run] wall time, WAL listener attached *)
  wal_bytes : int;  (** forced log bytes *)
  recover_s : float;  (** [Wal.read_string] + [Recovery.recover] *)
  catch_up_s : float;  (** summed [Follower.catch_up] time over boundaries *)
  replica_commits : int;  (** commits the follower applied *)
  failed : int;  (** submitted transactions counted as failed *)
  final_state : (string * int) list;
}

val leg : ?probe:Probe.t -> shape -> input -> Mvcc_engine.Engine.policy -> leg
(** One policy's run and durability tail. A transaction fails when it
    is still uncommitted at [max_ticks], when it was acknowledged but
    recovery from the forced bytes does not have it, or — all of the
    leg's commits at once — when recovery, the follower's caught-up
    view or (traced) the snapshot-tail recovery differ from the live
    final state, or the checker refutes [Follower.certify]. *)

val check_run :
  ?probe:Probe.t -> shape -> input -> Mvcc_engine.Engine.policy ->
  expect:(string * int) list -> int
(** A run with [~prov]: the committed history's certificate goes to
    the independent checker. Returns the failed count: every submitted
    transaction when the certificate is refuted or the final state
    differs from [expect] (the timed legs' state — provenance never
    changes a decision), else the uncommitted ones. *)

val recovery_failures :
  acked:int -> final_state:(string * int) list -> commits:int ->
  Mvcc_durable.Recovery.t -> int
(** The failed count a recovery from the forced bytes alone implies:
    every one of the run's [commits] when the log had a damaged record
    (a CRC-rejected line or a torn tail — acknowledged data was lost)
    or the recovered state differs from [final_state], else the
    acknowledged commits recovery does not have. *)
