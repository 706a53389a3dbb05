(* Tests for lib/durable: the WAL codec and its CRC framing, snapshots,
   recovery, and the crash-injection property over every policy. *)

module E = Mvcc_engine.Engine
module P = Mvcc_engine.Program
module Wal = Mvcc_durable.Wal
module Snapshot = Mvcc_durable.Snapshot
module Recovery = Mvcc_durable.Recovery
module Hook = Mvcc_durable.Hook
module Crash = Mvcc_durable.Crash
module Follower = Mvcc_durable.Follower
module Trace = Mvcc_obs.Trace
module Sink = Mvcc_obs.Sink

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let all_policies = [ E.S2pl; E.To; E.Mvto; E.Si; E.Sgt ]

(* -- WAL codec -- *)

let gen_record =
  QCheck2.Gen.(
    let name =
      oneofl [ "x"; "acct0"; "nasty \"quoted\\name\""; "tab\tand\nnewline" ]
    in
    let src = oneofl [ Wal.Init; Wal.Self; Wal.Txn 3; Wal.Txn 17 ] in
    oneof
      [
        (let* entity = name and* value = int_range (-50) 50 in
         return (Wal.State { entity; value }));
        (let* txn = int_range 0 40 and* ts = int_range 1 1000 in
         return (Wal.Begin { txn; ts }));
        (let* txn = int_range 0 40
         and* entity = name
         and* write = bool
         and* s = src in
         return
           (Wal.Op { txn; entity; write; src = (if write then None else Some s) }));
        (let* txn = int_range 0 40
         and* entity = name
         and* value = int_range (-50) 50
         and* wts = int_range 1 1000 in
         return (Wal.Install { txn; entity; value; wts }));
        (let* txn = int_range 0 40 in
         return (Wal.Commit { txn }));
        (let* txn = int_range 0 40 in
         return (Wal.Abort { txn; reason = "deadlock" }));
        (let* snapshot = name and* commits = int_range 0 100 in
         return (Wal.Checkpoint { snapshot; commits }));
      ])

let prop_codec_roundtrip =
  QCheck2.Test.make ~name:"wal codec: decode inverts encode" ~count:300
    QCheck2.Gen.(
      let* lsn = int_range 0 10_000 and* r = gen_record in
      return (lsn, r))
    (fun (lsn, r) -> Wal.decode (Wal.encode ~lsn r) = Some (lsn, r))

let prop_codec_rejects_tamper =
  QCheck2.Test.make ~name:"wal codec: any flipped byte fails the CRC"
    ~count:200
    QCheck2.Gen.(
      let* lsn = int_range 0 10_000 and* r = gen_record in
      let line = Wal.encode ~lsn r in
      let* pos = int_range 0 (String.length line - 1) in
      return (line, pos))
    (fun (line, pos) ->
      let tampered = Bytes.of_string line in
      Bytes.set tampered pos
        (Char.chr (Char.code (Bytes.get tampered pos) lxor 1));
      Wal.decode (Bytes.to_string tampered) = None)

(* The generic decoder the log readers used before the positional one,
   kept as an oracle: parse the line as any flat JSON object, re-encode
   the fields before the crc and checksum that byte by byte, then look
   the record's fields up by key. It accepts more than the writer emits
   (whitespace, reordered or extra keys, other escapes); on writer
   output the two decoders must agree, and the positional decoder must
   never accept a line this one rejects. *)
module Oracle = struct
  module Json = Mvcc_obs.Json

  let crc_table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)

  let crc32 s =
    let c = ref 0xffffffff in
    String.iter
      (fun ch ->
        c := crc_table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
      s;
    !c lxor 0xffffffff

  let unframe line =
    match Json.parse_obj line with
    | None -> None
    | Some parsed -> (
        match List.rev parsed with
        | ("crc", Json.Int crc) :: body_rev ->
            let body_fields = List.rev body_rev in
            if crc32 (Json.obj body_fields) = crc then Some body_fields
            else None
        | _ -> None)

  let of_fields fields =
    let int k =
      match List.assoc_opt k fields with
      | Some (Json.Int i) -> Some i
      | _ -> None
    in
    let str k =
      match List.assoc_opt k fields with
      | Some (Json.Str s) -> Some s
      | _ -> None
    in
    let bool k =
      match List.assoc_opt k fields with
      | Some (Json.Bool b) -> Some b
      | _ -> None
    in
    let ( let* ) = Option.bind in
    let* rec_ = str "rec" in
    match rec_ with
    | "state" ->
        let* entity = str "entity" in
        let* value = int "value" in
        Some (Wal.State { entity; value })
    | "begin" ->
        let* txn = int "txn" in
        let* ts = int "ts" in
        Some (Wal.Begin { txn; ts })
    | "op" ->
        let* txn = int "txn" in
        let* entity = str "entity" in
        let* write = bool "write" in
        let src =
          match List.assoc_opt "src" fields with
          | Some (Json.Str "init") -> Some Wal.Init
          | Some (Json.Str "self") -> Some Wal.Self
          | Some (Json.Int w) -> Some (Wal.Txn w)
          | _ -> None
        in
        if write && src <> None then None
        else if (not write) && src = None then None
        else Some (Wal.Op { txn; entity; write; src })
    | "install" ->
        let* txn = int "txn" in
        let* entity = str "entity" in
        let* value = int "value" in
        let* wts = int "wts" in
        Some (Wal.Install { txn; entity; value; wts })
    | "commit" ->
        let* txn = int "txn" in
        Some (Wal.Commit { txn })
    | "abort" ->
        let* txn = int "txn" in
        let* reason = str "reason" in
        Some (Wal.Abort { txn; reason })
    | "checkpoint" ->
        let* snapshot = str "snapshot" in
        let* commits = int "commits" in
        Some (Wal.Checkpoint { snapshot; commits })
    | _ -> None

  let decode line =
    match unframe line with
    | Some (("lsn", Json.Int lsn) :: rest) ->
        Option.map (fun r -> (lsn, r)) (of_fields rest)
    | _ -> None
end

let test_crc32_check_value () =
  check_int "CRC-32 check value" 0xcbf43926 (Wal.crc32 "123456789");
  check_int "empty string" 0 (Wal.crc32 "");
  let rng = Random.State.make [| 0xc7c |] in
  for len = 0 to 64 do
    let s = String.init len (fun _ -> Char.chr (Random.State.int rng 256)) in
    check_int
      (Printf.sprintf "slicing-by-8 = byte-wise at length %d" len)
      (Oracle.crc32 s) (Wal.crc32 s)
  done

(* Wider records than [gen_record]: extreme and negative ints, and
   strings over every byte, so every escape the writer emits shows up. *)
let gen_wide_record =
  QCheck2.Gen.(
    let num =
      oneof
        [ int_range (-1000) 1000; oneofl [ 0; max_int; min_int; -1 ]; int ]
    in
    let name =
      oneof
        [
          string_size ~gen:char (int_range 0 12);
          string_size
            ~gen:
              (oneofl
                 [ 'a'; '"'; '\\'; '\n'; '\x01'; '\x1b'; '\x7f'; '\xe9' ])
            (int_range 0 6);
        ]
    in
    let src =
      oneof [ oneofl [ Wal.Init; Wal.Self ]; map (fun w -> Wal.Txn w) num ]
    in
    oneof
      [
        (let* entity = name and* value = num in
         return (Wal.State { entity; value }));
        (let* txn = num and* ts = num in
         return (Wal.Begin { txn; ts }));
        (let* txn = num and* entity = name and* write = bool and* s = src in
         let src = if write then None else Some s in
         return (Wal.Op { txn; entity; write; src }));
        (let* txn = num and* entity = name and* value = num and* wts = num in
         return (Wal.Install { txn; entity; value; wts }));
        map (fun txn -> Wal.Commit { txn }) num;
        (let* txn = num and* reason = name in
         return (Wal.Abort { txn; reason }));
        (let* snapshot = name and* commits = num in
         return (Wal.Checkpoint { snapshot; commits }));
      ])

(* Bytes a hand edit or a damaged medium plausibly puts into a line:
   whitespace, number syntax, escapes, structure. *)
let gen_edit_byte =
  QCheck2.Gen.(
    oneof
      [
        oneofl
          [ ' '; '\t'; '0'; '1'; '2'; '9'; 'a'; 'A'; '-'; '+'; '.'; 'e';
            '\\'; '"'; 'u'; '/'; ','; ':'; '{'; '}'; 'n'; 't' ];
        char;
      ])

(* [line] damaged by one edit; with [refit], the damage is confined to
   the body and the crc is recomputed over the damaged bytes as stored,
   so only the decoder's canonical reading can reject it. *)
let gen_damaged line =
  QCheck2.Gen.(
    let* refit = bool and* kind = int_range 0 3 and* b = gen_edit_byte in
    let crc_at =
      let rec find i =
        if String.sub line i 7 = ",\"crc\":" then i else find (i - 1)
      in
      find (String.length line - 8)
    in
    let target = if refit then String.sub line 0 crc_at else line in
    let n = String.length target in
    let* i = int_range 0 (max 0 (n - 1)) in
    let edited =
      match kind with
      | 0 when n > 0 ->
          String.mapi (fun j c -> if j = i then b else c) target
      | 1 ->
          String.sub target 0 i ^ String.make 1 b
          ^ String.sub target i (n - i)
      | 2 when n > 0 ->
          String.sub target 0 i ^ String.sub target (i + 1) (n - i - 1)
      | _ -> String.sub target 0 i
    in
    return
      (if refit then
         Printf.sprintf "%s,\"crc\":%d}" edited (Oracle.crc32 (edited ^ "}"))
       else edited))

let gen_line_and_damage =
  QCheck2.Gen.(
    let* lsn = oneof [ int_range 0 10_000; int ] and* r = gen_wide_record in
    let line = Wal.encode ~lsn r in
    let* damaged = gen_damaged line in
    return (lsn, r, line, damaged))

let print_damage (lsn, _, line, damaged) =
  Printf.sprintf "lsn %d\nline    %S\ndamaged %S" lsn line damaged

let prop_decode_is_encode_image =
  QCheck2.Test.make
    ~name:"wal decode accepts exactly the image of encode" ~count:3000
    ~print:print_damage gen_line_and_damage
    (fun (lsn, r, line, damaged) ->
      Wal.decode line = Some (lsn, r)
      &&
      match Wal.decode damaged with
      | None -> true
      | Some (lsn', r') -> Wal.encode ~lsn:lsn' r' = damaged)

let prop_decode_agrees_with_oracle =
  QCheck2.Test.make
    ~name:"wal decode agrees with the generic oracle, never accepts more"
    ~count:3000 ~print:print_damage gen_line_and_damage
    (fun (lsn, r, line, damaged) ->
      Oracle.decode line = Some (lsn, r)
      &&
      match Wal.decode damaged with
      | None -> true
      | Some d -> Oracle.decode damaged = Some d)

(* Snapshot lines go through [unframe]: the same canonical reading
   over any flat field list the snapshot writer can frame. *)
let prop_unframe_agrees_with_oracle =
  QCheck2.Test.make
    ~name:"wal unframe accepts exactly frame's image, never more than oracle"
    ~count:2000
    QCheck2.Gen.(
      let key =
        string_size
          ~gen:(oneofl [ 'k'; 'e'; '"'; '\\'; '\n' ])
          (int_range 1 4)
      in
      let value =
        oneof
          [
            map
              (fun i -> Mvcc_obs.Json.Int i)
              (oneof [ int_range (-99) 99; int ]);
            map
              (fun s -> Mvcc_obs.Json.Str s)
              (string_size ~gen:char (int_range 0 6));
            map (fun b -> Mvcc_obs.Json.Bool b) bool;
          ]
      in
      let* fields = list_size (int_range 1 4) (pair key value) in
      let line = Wal.frame fields in
      let* damaged = gen_damaged line in
      return (fields, line, damaged))
    (fun (fields, line, damaged) ->
      Wal.unframe line = Some fields
      && Oracle.unframe line = Some fields
      &&
      match Wal.unframe damaged with
      | None -> true
      | Some fs ->
          Wal.frame fs = damaged && Oracle.unframe damaged = Some fs)

(* Real logs, every policy: the two decoders read every line alike. *)
let test_decode_agrees_on_engine_logs () =
  List.iter
    (fun policy ->
      let w = Wal.writer () in
      let hook = Hook.create w in
      let cfg = { Crash.default with policy; seed = 3 } in
      let initial =
        List.init cfg.Crash.entities (fun i -> (Printf.sprintf "e%d" i, 100))
      in
      ignore
        (E.run ~policy ~initial ~programs:(Crash.workload cfg)
           ~wal:(Hook.listener hook) ?snapshot_every:cfg.Crash.snapshot_every
           ~seed:cfg.Crash.seed ());
      let lines =
        String.split_on_char '\n' (Wal.contents w)
        |> List.filter (fun l -> l <> "")
      in
      check_int
        (Printf.sprintf "every line decodes under %s" (E.policy_name policy))
        (List.length lines)
        (List.length (List.filter_map Wal.decode lines));
      List.iter
        (fun l ->
          check "oracle agrees on writer output" true
            (Oracle.decode l = Wal.decode l))
        lines)
    all_policies

(* Spellings of writer records a generic JSON reader would accept,
   each resealed with the crc of its own bytes: only the writer's
   rendering decodes. *)
let test_noncanonical_spellings_rejected () =
  let seal body =
    Printf.sprintf "%s,\"crc\":%d}" body (Wal.crc32 (body ^ "}"))
  in
  let canonical =
    "{\"lsn\":3,\"rec\":\"state\",\"entity\":\"a\\u001b\",\"value\":7"
  in
  check "the canonical body decodes" true
    (Wal.decode (seal canonical)
    = Some (3, Wal.State { entity = "a\x1b"; value = 7 }));
  List.iter
    (fun body ->
      check
        (Printf.sprintf "rejected: %s" body)
        true
        (Wal.decode (seal body) = None))
    [
      "{\"lsn\":3, \"rec\":\"state\",\"entity\":\"a\\u001b\",\"value\":7";
      "{ \"lsn\":3,\"rec\":\"state\",\"entity\":\"a\\u001b\",\"value\":7";
      "{\"lsn\":3,\"rec\":\"state\",\"entity\":\"a\\u001b\",\"value\":7 ";
      "{\"lsn\":03,\"rec\":\"state\",\"entity\":\"a\\u001b\",\"value\":7";
      "{\"lsn\":+3,\"rec\":\"state\",\"entity\":\"a\\u001b\",\"value\":7";
      "{\"lsn\":3,\"rec\":\"state\",\"entity\":\"a\\u001b\",\"value\":-0";
      "{\"lsn\":3,\"rec\":\"state\",\"entity\":\"a\\u001b\",\"value\":7.0";
      "{\"lsn\":3,\"rec\":\"state\",\"entity\":\"a\\u001b\",\"value\":7e0";
      "{\"lsn\":3,\"rec\":\"state\",\"entity\":\"a\\u001B\",\"value\":7";
      "{\"lsn\":3,\"rec\":\"state\",\"entity\":\"a\\u0041\",\"value\":7";
      "{\"lsn\":3,\"rec\":\"state\",\"entity\":\"a\\u000a\",\"value\":7";
      "{\"lsn\":3,\"rec\":\"state\",\"entity\":\"a\\/\",\"value\":7";
      "{\"lsn\":3,\"rec\":\"state\",\"entity\":\"a\t\",\"value\":7";
      "{\"lsn\":3,\"rec\":\"state\",\"value\":7,\"entity\":\"a\\u001b\"";
      "{\"rec\":\"state\",\"lsn\":3,\"entity\":\"a\\u001b\",\"value\":7";
      "{\"lsn\":3,\"rec\":\"state\",\"entity\":\"a\\u001b\",\"value\":7,\"x\":1";
      "{\"lsn\":3,\"rec\":\"state\",\"entity\":\"a\\u001b\",\"value\":99999999999999999999";
      "{\"lsn\":3,\"rec\":\"op\",\"txn\":1,\"entity\":\"a\",\"write\":true,\"src\":\"init\"";
      "{\"lsn\":3,\"rec\":\"op\",\"txn\":1,\"entity\":\"a\",\"write\":false";
    ];
  check "a crc with a leading zero is rejected" true
    (Wal.decode
       (Printf.sprintf "%s,\"crc\":0%d}" canonical
          (Wal.crc32 (canonical ^ "}")))
    = None)

let test_noncanonical_valid_crc_is_skip () =
  let line = Wal.encode ~lsn:0 (Wal.Commit { txn = 4 }) in
  (* a hand edit adding whitespace: the crc of the canonical rendering
     still matches once the oracle re-encodes, but not the stored bytes *)
  let edited =
    let i = String.index line ',' + 1 in
    String.sub line 0 i ^ " " ^ String.sub line i (String.length line - i)
  in
  check "oracle reads the edit" true
    (Oracle.decode edited = Some (0, Wal.Commit { txn = 4 }));
  check "the positional decoder does not" true (Wal.decode edited = None);
  let { Wal.records; stats } =
    Wal.read_string (String.concat "\n" [ line; edited; line ] ^ "\n")
  in
  check_int "two records" 2 (List.length records);
  check_int "the edit is a skip" 1 stats.Mvcc_obs.Jsonl.skipped

let test_wal_writer () =
  let w = Wal.writer () in
  check_int "lsn starts at 0" 0 (Wal.next_lsn w);
  let l0 = Wal.append w (Wal.Commit { txn = 0 }) in
  let l1 = Wal.append w (Wal.Commit { txn = 1 }) in
  check_int "first lsn" 0 l0;
  check_int "second lsn" 1 l1;
  let { Wal.records; stats } = Wal.read_string (Wal.contents w) in
  check_int "no skips" 0 stats.Mvcc_obs.Jsonl.skipped;
  check "no torn tail" false stats.torn_tail;
  check "records round-trip" true
    (records = [ (0, Wal.Commit { txn = 0 }); (1, Wal.Commit { txn = 1 }) ])

(* Truncate a two-record log at every byte offset of the second record:
   the reader must keep the first record always, keep the second exactly
   when it is complete, and flag a torn tail exactly when a proper
   nonempty prefix of it remains. *)
let test_wal_torn_tail_every_offset () =
  let r0 = Wal.encode ~lsn:0 (Wal.Begin { txn = 0; ts = 1 }) ^ "\n" in
  let r1 = Wal.encode ~lsn:1 (Wal.Install { txn = 0; entity = "x"; value = 7; wts = 1 }) in
  let whole = r0 ^ r1 ^ "\n" in
  let base = String.length r0 in
  for cut = base to String.length whole do
    let { Wal.records; stats } = Wal.read_string (String.sub whole 0 cut) in
    let kept = List.length records in
    let full_r1 = cut >= base + String.length r1 in
    check_int
      (Printf.sprintf "records kept at cut %d" cut)
      (if full_r1 then 2 else 1)
      kept;
    check
      (Printf.sprintf "torn at cut %d" cut)
      ((not full_r1) && cut > base)
      stats.Mvcc_obs.Jsonl.torn_tail;
    check_int (Printf.sprintf "skips at cut %d" cut) 0 stats.skipped
  done

let test_wal_midfile_corruption_is_skip () =
  let w = Wal.writer () in
  List.iter
    (fun txn -> ignore (Wal.append w (Wal.Commit { txn })))
    [ 0; 1; 2 ];
  let bytes = Bytes.of_string (Wal.contents w) in
  (* flip a byte inside the second line *)
  let pos = (Bytes.index_from bytes 0 '\n') + 3 in
  Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 1));
  let { Wal.records; stats } = Wal.read_string (Bytes.to_string bytes) in
  check_int "one skip" 1 stats.Mvcc_obs.Jsonl.skipped;
  check "not torn" false stats.torn_tail;
  check "first and third survive" true
    (List.map snd records = [ Wal.Commit { txn = 0 }; Wal.Commit { txn = 2 } ])

(* -- Group commit -- *)

(* The fast in-place emitter and the reference codec must agree byte for
   byte, whatever the window — a force adds nothing to the stream, it
   only marks how much of it is durable. *)
let prop_writer_bytes_match_reference =
  QCheck2.Test.make
    ~name:"writer bytes = reference encode, for every window shape"
    ~count:200
    QCheck2.Gen.(
      let* rs = list_size (int_range 0 25) gen_record
      and* win = oneofl [ `None; `R 1; `R 3; `C 2; `RC (4, 2) ] in
      return (rs, win))
    (fun (rs, win) ->
      let window =
        match win with
        | `None -> None
        | `R r -> Some (Wal.window ~records:r ())
        | `C c -> Some (Wal.window ~commits:c ())
        | `RC (r, c) -> Some (Wal.window ~records:r ~commits:c ())
      in
      let w = Wal.writer ?window () in
      List.iter (fun r -> ignore (Wal.append w r)) rs;
      let reference =
        String.concat ""
          (List.mapi (fun i r -> Wal.encode ~lsn:i r ^ "\n") rs)
      in
      let bytes_ok = Wal.contents w = reference in
      Wal.close w;
      bytes_ok && Wal.durable_contents w = Wal.contents w)

(* a writer's obs sink is pure accounting: same bytes, same durable
   prefix, same acks and forces as a blind writer, for every window
   shape — and the counters agree with the writer's own accessors. *)
let prop_obs_writer_byte_invariance =
  QCheck2.Test.make
    ~name:"writer with a live sink is byte-identical to a blind writer"
    ~count:200
    QCheck2.Gen.(
      let* rs = list_size (int_range 0 25) gen_record
      and* win = oneofl [ `None; `R 1; `R 3; `C 2; `RC (4, 2) ] in
      return (rs, win))
    (fun (rs, win) ->
      let window () =
        match win with
        | `None -> None
        | `R r -> Some (Wal.window ~records:r ())
        | `C c -> Some (Wal.window ~commits:c ())
        | `RC (r, c) -> Some (Wal.window ~records:r ~commits:c ())
      in
      let m = Mvcc_obs.Metrics.create () in
      let spans = Mvcc_obs.Span.create () in
      let obs = Sink.create ~metrics:m ~spans () in
      let blind = Wal.writer ?window:(window ()) () in
      let seen = Wal.writer ?window:(window ()) ~obs () in
      List.iter
        (fun r ->
          ignore (Wal.append blind r);
          ignore (Wal.append seen r))
        rs;
      let agree_live =
        Wal.contents blind = Wal.contents seen
        && Wal.durable_contents blind = Wal.durable_contents seen
        && Wal.acked_commits blind = Wal.acked_commits seen
        && Wal.forces blind = Wal.forces seen
      in
      Wal.close blind;
      Wal.close seen;
      agree_live
      && Wal.contents blind = Wal.contents seen
      && Wal.force_boundaries blind = Wal.force_boundaries seen
      && Mvcc_obs.Metrics.counter m "wal.appends" = List.length rs
      && Mvcc_obs.Metrics.counter m "wal.forces" = Wal.forces seen
      && Mvcc_obs.Metrics.gauge m "wal.acked-commits"
         = Wal.acked_commits seen
      && Mvcc_obs.Span.open_spans spans = 0)

(* window=1 group commit must be indistinguishable from the PR 6
   flush-per-record path: byte-identical file, and the identical durable
   prefix after every single append. *)
let test_group_window1_byte_identical () =
  let records =
    let w = Wal.writer () in
    let hook = Hook.create w in
    let cfg = { Crash.default with policy = E.Mvto; seed = 5 } in
    let initial =
      List.init cfg.Crash.entities (fun i -> (Printf.sprintf "e%d" i, 100))
    in
    ignore
      (E.run ~policy:E.Mvto ~initial ~programs:(Crash.workload cfg)
         ~wal:(Hook.listener hook) ?snapshot_every:cfg.Crash.snapshot_every
         ~seed:cfg.Crash.seed ());
    List.map snd (Wal.read_string (Wal.contents w)).Wal.records
  in
  check "workload produced records" true (List.length records > 50);
  let p1 = Filename.temp_file "wal_perrec" ".wal" in
  let p2 = Filename.temp_file "wal_window1" ".wal" in
  let w1 = Wal.writer ~path:p1 () in
  let w2 = Wal.writer ~path:p2 ~window:(Wal.window ~records:1 ()) () in
  List.iter
    (fun r ->
      ignore (Wal.append w1 r);
      ignore (Wal.append w2 r);
      check "durable prefixes agree after every append" true
        (Wal.durable_contents w1 = Wal.durable_contents w2);
      check_int "acks agree after every append" (Wal.acked_commits w1)
        (Wal.acked_commits w2))
    records;
  Wal.close w1;
  Wal.close w2;
  let slurp p = In_channel.with_open_bin p In_channel.input_all in
  check "files byte-identical" true (slurp p1 = slurp p2);
  check "file = in-memory contents" true (slurp p1 = Wal.contents w1);
  Sys.remove p1;
  Sys.remove p2

let test_close_mid_batch_flushes_once () =
  let p = Filename.temp_file "wal_midbatch" ".wal" in
  let w = Wal.writer ~path:p ~window:(Wal.window ~records:100 ()) () in
  let app r = ignore (Wal.append w r) in
  app (Wal.State { entity = "x"; value = 0 });
  app (Wal.Begin { txn = 0; ts = 1 });
  app (Wal.Install { txn = 0; entity = "x"; value = 5; wts = 1 });
  app (Wal.Commit { txn = 0 });
  app (Wal.Commit { txn = 1 });
  let slurp () = In_channel.with_open_bin p In_channel.input_all in
  check "nothing durable before the window fills" true
    (Wal.durable_contents w = "" && slurp () = "");
  check_int "no acks before the force" 0 (Wal.acked_commits w);
  check_int "no forces yet" 0 (Wal.forces w);
  Wal.close w;
  check_int "close forced the open batch" 1 (Wal.forces w);
  check_int "close acknowledged the batch's commits" 2 (Wal.acked_commits w);
  check "file holds the whole log" true (slurp () = Wal.contents w);
  check "durable = contents" true (Wal.durable_contents w = Wal.contents w);
  Wal.close w;
  check_int "second close is a no-op" 1 (Wal.forces w);
  Wal.force w;
  check_int "force after close is a no-op" 1 (Wal.forces w);
  Sys.remove p

(* -- Snapshots -- *)

let test_snapshot_roundtrip () =
  let store = Mvcc_engine.Store.create ~initial:[ ("a", 1); ("b", 2) ] in
  Mvcc_engine.Store.install store "a" ~value:10 ~wts:3;
  Mvcc_engine.Store.install store "a" ~value:20 ~wts:5;
  let snap = Snapshot.capture ~lsn:42 ~commits:7 store in
  (match Snapshot.decode (Snapshot.encode snap) with
  | None -> Alcotest.fail "snapshot did not decode"
  | Some s ->
      check "roundtrip" true (s = snap);
      check "store agrees" true
        (Recovery.dump_string (Snapshot.store s)
        = Recovery.dump_string store));
  (* a torn snapshot write is rejected whole *)
  let enc = Snapshot.encode snap in
  let torn = String.sub enc 0 (String.length enc - 10) in
  check "torn snapshot rejected" true (Snapshot.decode torn = None)

(* Any one flipped bit, anywhere — a version line, the header, a
   newline — rejects the whole snapshot. *)
let test_snapshot_tamper_rejected () =
  let store = Mvcc_engine.Store.create ~initial:[ ("a", 1); ("b\"q", -2) ] in
  Mvcc_engine.Store.install store "a" ~value:10 ~wts:3;
  let enc = Snapshot.encode (Snapshot.capture ~lsn:9 ~commits:1 store) in
  String.iteri
    (fun i ch ->
      let tampered =
        String.mapi
          (fun j c -> if j = i then Char.chr (Char.code ch lxor 1) else c)
          enc
      in
      check
        (Printf.sprintf "flipped byte %d rejected" i)
        true
        (Snapshot.decode tampered = None))
    enc

(* -- logging never changes a decision -- *)

let run_traced ?wal ?snapshot_every ~policy ~seed () =
  let programs =
    Crash.workload { Crash.default with policy; seed; snapshot_every }
  in
  let initial = List.init 6 (fun i -> (Printf.sprintf "e%d" i, 100)) in
  let trace = Trace.create ~capacity:4096 () in
  let obs = Sink.create ~trace () in
  let r = E.run ~policy ~initial ~programs ~obs ?wal ?snapshot_every ~seed () in
  let buf = Buffer.create 1024 in
  List.iter
    (fun (i, ev) -> Buffer.add_string buf (Trace.to_json i ev))
    (Trace.to_list trace);
  (r, Buffer.contents buf)

let prop_wal_off_invariance =
  QCheck2.Test.make
    ~name:"a wal listener never changes decisions, state, or trace"
    ~count:40
    QCheck2.Gen.(
      let* seed = int_range 0 10_000 and* policy = oneofl all_policies in
      return (seed, policy))
    (fun (seed, policy) ->
      let blind, trace_blind = run_traced ~policy ~seed () in
      let hook = Hook.create (Wal.writer ()) in
      let logged, trace_logged =
        run_traced ~wal:(Hook.listener hook) ~snapshot_every:2 ~policy ~seed ()
      in
      blind.E.stats = logged.E.stats
      && blind.E.final_state = logged.E.final_state
      && trace_blind = trace_logged)

(* -- Recovery -- *)

let test_full_log_recovery_all_policies () =
  List.iter
    (fun policy ->
      let cfg = { Crash.default with policy; seed = 11; points = 0 } in
      let programs = Crash.workload cfg in
      let initial = List.init cfg.entities (fun i -> (Printf.sprintf "e%d" i, 100)) in
      let w = Wal.writer () in
      let hook = Hook.create w in
      let r =
        E.run ~policy ~initial ~programs ~wal:(Hook.listener hook)
          ?snapshot_every:cfg.snapshot_every ~seed:cfg.seed ()
      in
      let rec_ = Recovery.recover ~policy (Wal.read_string (Wal.contents w)) in
      check
        (Printf.sprintf "final state recovered under %s" (E.policy_name policy))
        true
        (rec_.Recovery.state = r.E.final_state);
      check "nothing undone" true
        (rec_.undone = [] && rec_.cascaded = []);
      check_int "all commits recovered" r.E.stats.E.commits
        (List.length rec_.commit_order);
      match rec_.witness with
      | None -> Alcotest.fail "no witness"
      | Some wit ->
          check
            (Printf.sprintf "checker certifies recovery under %s"
               (E.policy_name policy))
            true
            (Mvcc_provenance.Checker.verify rec_.history wit))
    all_policies

(* A lost Commit record must cascade to the transactions that read from
   it, to a fixpoint — the one case where recovery aborts a committed
   transaction. *)
let test_midlog_commit_loss_cascades () =
  let w = Wal.writer () in
  let app r = ignore (Wal.append w r) in
  app (Wal.State { entity = "x"; value = 0 });
  app (Wal.Begin { txn = 0; ts = 1 });
  app (Wal.Begin { txn = 1; ts = 2 });
  app (Wal.Op { txn = 0; entity = "x"; write = true; src = None });
  app (Wal.Install { txn = 0; entity = "x"; value = 5; wts = 1 });
  app (Wal.Commit { txn = 0 });
  app (Wal.Op { txn = 1; entity = "x"; write = false; src = Some (Wal.Txn 0) });
  app (Wal.Op { txn = 1; entity = "x"; write = true; src = None });
  app (Wal.Install { txn = 1; entity = "x"; value = 6; wts = 2 });
  app (Wal.Commit { txn = 1 });
  let lines = String.split_on_char '\n' (Wal.contents w) in
  let without_commit0 =
    List.mapi
      (fun i l -> if i = 5 then "corrupted line, fails its crc" else l)
      lines
    |> String.concat "\n"
  in
  let r = Recovery.recover ~policy:E.Mvto (Wal.read_string without_commit0) in
  check_int "one skip" 1 r.Recovery.stats.Mvcc_obs.Jsonl.skipped;
  check "txn 0 undone (no commit record)" true (r.undone = [ 0 ]);
  check "txn 1 cascaded (its source is gone)" true (r.cascaded = [ 1 ]);
  check "nothing committed" true (r.commit_order = []);
  check "store back to initial" true (r.state = [ ("x", 0) ]);
  (* with the commit intact, both survive *)
  let intact =
    Recovery.recover ~policy:E.Mvto (Wal.read_string (Wal.contents w))
  in
  check "intact log commits both" true (intact.commit_order = [ 0; 1 ]);
  check "intact final value" true (intact.state = [ ("x", 6) ])

(* -- Crash injection: the tentpole property -- *)

let crash_points_per_policy = 120

let test_crash_injection_all_policies () =
  List.iter
    (fun policy ->
      List.iter
        (fun seed ->
          let report =
            Crash.run
              {
                Crash.default with
                policy;
                seed;
                points = crash_points_per_policy / 2;
              }
          in
          if report.Crash.failures <> [] then
            Alcotest.failf "%a" Crash.pp_report report;
          check
            (Printf.sprintf "some torn points under %s seed %d"
               (E.policy_name policy) seed)
            true
            (report.Crash.torn > 0 && report.checked > 0))
        [ 3; 4 ])
    all_policies

(* Group-commit crash points: every point checks both the raw cut
   (mid-batch) and the forced-boundary image, so this exercises
   truncation at batch boundaries and inside open batches, under both
   window shapes, for every policy. *)
let test_crash_group_commit_all_policies () =
  let windows = [ Wal.window ~commits:3 (); Wal.window ~records:7 () ] in
  List.iter
    (fun policy ->
      List.iter
        (fun window ->
          let report =
            Crash.run
              {
                Crash.default with
                policy;
                seed = 6;
                window = Some window;
                points = 60;
              }
          in
          if report.Crash.failures <> [] then
            Alcotest.failf "%a" Crash.pp_report report;
          check
            (Printf.sprintf "batching happened under %s/%s"
               (E.policy_name policy)
               (Crash.window_name (Some window)))
            true
            (report.Crash.forces > 0
            && report.Crash.forces < report.Crash.records
            && report.Crash.acked <= report.Crash.commits
            && report.Crash.torn > 0))
        windows)
    all_policies

let test_crash_only_point_reproduces () =
  let cfg = { Crash.default with policy = E.Sgt; seed = 9; points = 40 } in
  let full = Crash.run cfg in
  check "baseline clean" true (full.Crash.failures = []);
  let one = Crash.run { cfg with only = Some 17 } in
  check_int "exactly one point checked" 1 one.Crash.checked;
  check "replay clean" true (one.Crash.failures = [])

(* -- Log-shipping follower -- *)

(* The follower is recovery-in-a-loop: after any sequence of feeds, its
   incremental view must equal one-shot recovery of the bytes consumed
   so far — store dump, live store, committed history, state, witness
   rendering, stats — including prefixes that end mid-record. *)
let prop_follower_equiv_recovery =
  QCheck2.Test.make
    ~name:"follower incremental state = one-shot recovery of every prefix"
    ~count:15
    QCheck2.Gen.(
      let* seed = int_range 0 1000
      and* policy = oneofl all_policies
      and* chunk_seed = int_range 0 1000 in
      return (seed, policy, chunk_seed))
    (fun (seed, policy, chunk_seed) ->
      let w = Wal.writer () in
      let hook = Hook.create w in
      let cfg = { Crash.default with policy; seed } in
      let initial =
        List.init cfg.Crash.entities (fun i -> (Printf.sprintf "e%d" i, 100))
      in
      ignore
        (E.run ~policy ~initial ~programs:(Crash.workload cfg)
           ~wal:(Hook.listener hook) ?snapshot_every:cfg.Crash.snapshot_every
           ~seed ());
      let bytes = Wal.contents w in
      let n = String.length bytes in
      let rng = Random.State.make [| chunk_seed; 0xf0110 |] in
      let f = Follower.create ~policy () in
      let pos = ref 0 in
      let ok = ref true in
      let compare_at p =
        let read = Wal.read_string (String.sub bytes 0 p) in
        let one = Recovery.recover ~policy read in
        let live = Follower.state f in
        let wit r =
          Option.map
            (Format.asprintf "%a" Mvcc_provenance.Witness.pp)
            r.Recovery.witness
        in
        ok :=
          !ok
          && Recovery.dump_string (Follower.store f)
             = Recovery.dump_string one.Recovery.store
          && Recovery.dump_string live.Recovery.store
             = Recovery.dump_string one.store
          && Mvcc_core.Schedule.steps live.history
             = Mvcc_core.Schedule.steps one.history
          && live.commit_order = one.commit_order
          && live.state = one.state
          && wit live = wit one
          && live.stats = one.stats
          && Follower.records_applied f = List.length read.Wal.records
      in
      while !pos < n do
        let p = min n (!pos + 1 + Random.State.int rng 300) in
        ignore (Follower.feed f (String.sub bytes !pos (p - !pos)));
        pos := p;
        if p < n && Random.State.int rng 3 = 0 then compare_at p
      done;
      compare_at n;
      !ok)

(* Ship the follower only forced bytes and it can never observe an
   unacknowledged commit; catching up twice applies nothing the second
   time; close forces the open batch and the replica converges. *)
let test_follower_never_observes_unforced () =
  let w = Wal.writer ~window:(Wal.window ~commits:2 ()) () in
  let app r = ignore (Wal.append w r) in
  app (Wal.State { entity = "x"; value = 0 });
  app (Wal.Begin { txn = 0; ts = 1 });
  app (Wal.Op { txn = 0; entity = "x"; write = true; src = None });
  app (Wal.Install { txn = 0; entity = "x"; value = 5; wts = 1 });
  app (Wal.Commit { txn = 0 });
  let f = Follower.create ~policy:E.Mvto () in
  ignore (Follower.catch_up f (Wal.durable_contents w));
  check_int "nothing durable, nothing observed" 0 (Follower.commits_applied f);
  check "replica has heard nothing" true (Follower.read f "x" = None);
  (* the second commit fills the window and forces the batch *)
  app (Wal.Begin { txn = 1; ts = 2 });
  app (Wal.Op { txn = 1; entity = "x"; write = false; src = Some (Wal.Txn 0) });
  app (Wal.Op { txn = 1; entity = "x"; write = true; src = None });
  app (Wal.Install { txn = 1; entity = "x"; value = 6; wts = 2 });
  app (Wal.Commit { txn = 1 });
  check_int "leader acked the batch" 2 (Wal.acked_commits w);
  ignore (Follower.catch_up f (Wal.durable_contents w));
  check_int "both commits shipped" 2 (Follower.commits_applied f);
  check_int "snapshot ts is the last applied write" 2 (Follower.snapshot_ts f);
  check "replica reads the forced value" true (Follower.read f "x" = Some 6);
  (* a third, unforced commit stays invisible to the replica *)
  app (Wal.Begin { txn = 2; ts = 3 });
  app (Wal.Op { txn = 2; entity = "x"; write = true; src = None });
  app (Wal.Install { txn = 2; entity = "x"; value = 9; wts = 3 });
  app (Wal.Commit { txn = 2 });
  check_int "third commit is not acked" 2 (Wal.acked_commits w);
  let before = Recovery.dump_string (Follower.store f) in
  check_int "catch-up ships nothing new" 0
    (Follower.catch_up f (Wal.durable_contents w));
  check_int "double catch-up is idempotent" 0
    (Follower.catch_up f (Wal.durable_contents w));
  check "store untouched" true
    (Recovery.dump_string (Follower.store f) = before);
  check "unforced commit invisible" true (Follower.read f "x" = Some 6);
  let view, verdict = Follower.certified_read_view f in
  check "lagging view is checker-certified" true verdict;
  check "view serves the forced state" true (view = [ ("x", 6) ]);
  (* close forces the open batch; the replica converges *)
  Wal.close w;
  check_int "close acked the tail" 3 (Wal.acked_commits w);
  check_int "the tail's records ship" 4
    (Follower.catch_up f (Wal.durable_contents w));
  check_int "lag closed" 3 (Follower.commits_applied f);
  check "replica reads the tail commit" true (Follower.read f "x" = Some 9);
  let _, _, ok = Follower.certify f in
  check "certified after catch-up" true ok

(* Mid-run, a follower fed only the durable prefix sees exactly the
   acknowledged commits — never more — and its lagging reads are
   read-consistent under every policy, confirmed by the independent
   checker. *)
let test_follower_lagging_reads_all_policies () =
  List.iter
    (fun policy ->
      let cfg = { Crash.default with policy; seed = 21 } in
      let w = Wal.writer ~window:(Wal.window ~commits:3 ()) () in
      let hook = Hook.create w in
      let initial =
        List.init cfg.Crash.entities (fun i -> (Printf.sprintf "e%d" i, 100))
      in
      let r =
        E.run ~policy ~initial ~programs:(Crash.workload cfg)
          ~wal:(Hook.listener hook)
          ~wal_durable:(fun () -> Wal.acked_commits w)
          ?snapshot_every:cfg.Crash.snapshot_every ~seed:cfg.Crash.seed ()
      in
      let f = Follower.create ~policy () in
      ignore (Follower.catch_up f (Wal.durable_contents w));
      check_int
        (Printf.sprintf "replica sees exactly the acked commits under %s"
           (E.policy_name policy))
        (Wal.acked_commits w)
        (Follower.commits_applied f);
      check "engine ack count agrees with the writer" true
        (r.E.durable_commits = Some (Wal.acked_commits w));
      let one =
        Recovery.recover ~policy (Wal.read_string (Wal.durable_contents w))
      in
      check "replica store = one-shot recovery of the durable prefix" true
        (Recovery.dump_string (Follower.store f)
        = Recovery.dump_string one.Recovery.store);
      let _, _, ok = Follower.certify f in
      check
        (Printf.sprintf "lagging reads certified under %s"
           (E.policy_name policy))
        true ok;
      Wal.close w;
      ignore (Follower.catch_up f (Wal.durable_contents w));
      check_int "caught up to every commit" r.E.stats.E.commits
        (Follower.commits_applied f);
      check "caught-up view is the live final state" true
        (Follower.read_view f = r.E.final_state);
      let _, _, ok2 = Follower.certify f in
      check "certified at the tip" true ok2)
    all_policies

(* -- Recovered version functions -- *)

(* The pre-bucket [Self] lookup: scan every earlier position for the
   transaction's last write of the entity. *)
let version_fn_by_scan history read_srcs =
  let hsteps = Mvcc_core.Schedule.steps history in
  List.fold_left
    (fun v (pos, src) ->
      let st = hsteps.(pos) in
      match (src : Wal.src) with
      | Wal.Init -> Mvcc_core.Version_fn.add pos Initial v
      | Wal.Self ->
          let q = ref (-1) in
          for k = 0 to pos - 1 do
            let s2 = hsteps.(k) in
            if
              s2.Mvcc_core.Step.txn = st.Mvcc_core.Step.txn
              && s2.entity = st.entity
              && Mvcc_core.Step.is_write s2
            then q := k
          done;
          Mvcc_core.Version_fn.add pos (From !q) v
      | Wal.Txn j -> (
          match
            Mvcc_core.Read_from.last_write_of history ~txn:j
              ~entity:st.Mvcc_core.Step.entity
          with
          | Some q -> Mvcc_core.Version_fn.add pos (From q) v
          | None -> v))
    Mvcc_core.Version_fn.empty read_srcs

let prop_version_fn_matches_scan =
  QCheck2.Test.make
    ~name:"recovered version function = the earlier-position scan"
    ~count:500
    QCheck2.Gen.(
      let* n_txns = int_range 1 4 in
      let step =
        let* txn = int_range 0 (n_txns - 1)
        and* entity = oneofl [ "a"; "b"; "c" ]
        and* write = bool in
        return
          (if write then Mvcc_core.Step.write txn entity
           else Mvcc_core.Step.read txn entity)
      in
      let* steps = list_size (int_range 1 30) step in
      let* srcs =
        flatten_l
          (List.map
             (fun _ ->
               oneof
                 [
                   return Wal.Init;
                   return Wal.Self;
                   map (fun j -> Wal.Txn j) (int_range 0 (n_txns - 1));
                 ])
             steps)
      in
      return (n_txns, steps, srcs))
    (fun (n_txns, steps, srcs) ->
      let h = Mvcc_core.Schedule.of_steps ~n_txns steps in
      let read_srcs =
        List.concat
          (List.mapi
             (fun pos ((st : Mvcc_core.Step.t), src) ->
               if Mvcc_core.Step.is_write st then [] else [ (pos, src) ])
             (List.combine steps srcs))
      in
      Mvcc_core.Version_fn.to_list (Recovery.version_fn h read_srcs)
      = Mvcc_core.Version_fn.to_list (version_fn_by_scan h read_srcs))

(* -- Follower bootstrap -- *)

let log_of records =
  String.concat ""
    (List.mapi (fun lsn r -> Wal.encode ~lsn r ^ "\n") records)

(* The follower's store, live view and stats after [chunks], against
   one-shot recovery of the same bytes. *)
let follower_matches_recovery ~policy chunks =
  let f = Follower.create ~policy () in
  List.iter (fun c -> ignore (Follower.feed f c)) chunks;
  let one =
    Recovery.recover ~policy (Wal.read_string (String.concat "" chunks))
  in
  let live = Follower.state f in
  ( f,
    Recovery.dump_string (Follower.store f)
    = Recovery.dump_string one.Recovery.store
    && Recovery.dump_string live.Recovery.store
       = Recovery.dump_string one.store
    && live.state = one.state
    && live.stats = one.stats )

let per_record log =
  String.split_on_char '\n' log
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l -> l ^ "\n")

let test_follower_duplicate_state_last_wins () =
  let log =
    log_of
      [
        Wal.State { entity = "x"; value = 1 };
        Wal.State { entity = "y"; value = 2 };
        Wal.State { entity = "x"; value = 3 };
        Wal.Begin { txn = 0; ts = 1 };
        Wal.Op { txn = 0; entity = "x"; write = false; src = Some Wal.Init };
        Wal.Op { txn = 0; entity = "y"; write = true; src = None };
        Wal.Install { txn = 0; entity = "y"; value = 7; wts = 1 };
        Wal.Commit { txn = 0 };
      ]
  in
  List.iter
    (fun (how, chunks) ->
      let f, same = follower_matches_recovery ~policy:E.Mvto chunks in
      check (how ^ ": follower = one-shot recovery") true same;
      check (how ^ ": the last State wins") true
        (Follower.read_view f = [ ("x", 3); ("y", 7) ]);
      check (how ^ ": x keeps one initial version") true
        (Recovery.dump_string (Follower.store f) = "x: 0=3\ny: 0=2 1=7"))
    [ ("one chunk", [ log ]); ("per record", per_record log) ]

(* Initial state after a commit cannot be applied incrementally: the
   follower degrades to assembling its store the one-shot way. *)
let test_follower_state_after_commit_degrades () =
  let log =
    log_of
      [
        Wal.State { entity = "x"; value = 1 };
        Wal.Begin { txn = 0; ts = 1 };
        Wal.Op { txn = 0; entity = "x"; write = true; src = None };
        Wal.Install { txn = 0; entity = "x"; value = 5; wts = 1 };
        Wal.Commit { txn = 0 };
        Wal.State { entity = "z"; value = 9 };
        Wal.State { entity = "x"; value = 4 };
      ]
  in
  List.iter
    (fun (how, chunks) ->
      let f, same = follower_matches_recovery ~policy:E.Si chunks in
      check (how ^ ": follower = one-shot recovery") true same;
      check (how ^ ": late State lands under the commit") true
        (Recovery.dump_string (Follower.store f) = "x: 0=4 1=5\nz: 0=9");
      let _, _, ok = Follower.certify f in
      check (how ^ ": still certified") true ok)
    [ ("one chunk", [ log ]); ("per record", per_record log) ]

(* A wide bootstrap — 4,096 State records, some repeated — followed by
   commits, fed in random chunks, is one-shot recovery exactly. *)
let test_follower_wide_bootstrap () =
  let n = 4096 in
  let states =
    List.init n (fun i ->
        Wal.State { entity = Printf.sprintf "k%d" i; value = i })
    @ List.init 64 (fun i ->
          Wal.State { entity = Printf.sprintf "k%d" (i * 61); value = -i })
  in
  let txns =
    List.concat
      (List.init 100 (fun t ->
           let e = Printf.sprintf "k%d" (t * 37 mod n) in
           [
             Wal.Begin { txn = t; ts = t + 1 };
             Wal.Op
               { txn = t; entity = e; write = false; src = Some Wal.Init };
             Wal.Op { txn = t; entity = e; write = true; src = None };
             Wal.Install { txn = t; entity = e; value = t; wts = t + 1 };
             Wal.Commit { txn = t };
           ]))
  in
  let log = log_of (states @ txns) in
  let rng = Random.State.make [| 4096 |] in
  let rec chunks pos =
    if pos >= String.length log then []
    else
      let len =
        min (String.length log - pos) (1 + Random.State.int rng 5000)
      in
      String.sub log pos len :: chunks (pos + len)
  in
  let f, same = follower_matches_recovery ~policy:E.Mvto (chunks 0) in
  check "wide bootstrap: follower = one-shot recovery" true same;
  check_int "every entity present" n (List.length (Follower.read_view f));
  check_int "every commit applied" 100 (Follower.commits_applied f);
  check "repeated State: last wins" true (Follower.read f "k61" = Some (-1))

let () =
  Alcotest.run "durable"
    [
      ( "wal",
        [
          Alcotest.test_case "writer lsns and roundtrip" `Quick test_wal_writer;
          Alcotest.test_case "crc32 check value" `Quick test_crc32_check_value;
          Alcotest.test_case "decoders agree on engine logs" `Quick
            test_decode_agrees_on_engine_logs;
          Alcotest.test_case "non-canonical spellings are rejected" `Quick
            test_noncanonical_spellings_rejected;
          Alcotest.test_case "non-canonical line with a valid crc is a skip"
            `Quick test_noncanonical_valid_crc_is_skip;
          Alcotest.test_case "torn tail at every byte offset" `Quick
            test_wal_torn_tail_every_offset;
          Alcotest.test_case "mid-file corruption is a skip" `Quick
            test_wal_midfile_corruption_is_skip;
          Alcotest.test_case "window=1 is byte-identical to flush-per-record"
            `Quick test_group_window1_byte_identical;
          Alcotest.test_case "close mid-batch forces exactly once" `Quick
            test_close_mid_batch_flushes_once;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "roundtrip and torn reject" `Quick
            test_snapshot_roundtrip;
          Alcotest.test_case "any flipped byte rejects" `Quick
            test_snapshot_tamper_rejected;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "full log, all policies" `Quick
            test_full_log_recovery_all_policies;
          Alcotest.test_case "mid-log commit loss cascades" `Quick
            test_midlog_commit_loss_cascades;
        ] );
      ( "crash",
        [
          Alcotest.test_case "600 crash points across policies" `Quick
            test_crash_injection_all_policies;
          Alcotest.test_case "600 group-commit crash points across policies"
            `Quick test_crash_group_commit_all_policies;
          Alcotest.test_case "--point replays one crash" `Quick
            test_crash_only_point_reproduces;
        ] );
      ( "follower",
        [
          Alcotest.test_case "never observes an unforced commit" `Quick
            test_follower_never_observes_unforced;
          Alcotest.test_case "lagging certified reads, all policies" `Quick
            test_follower_lagging_reads_all_policies;
          Alcotest.test_case "duplicate State: last wins" `Quick
            test_follower_duplicate_state_last_wins;
          Alcotest.test_case "State after a commit degrades" `Quick
            test_follower_state_after_commit_degrades;
          Alcotest.test_case "4096-entity bootstrap = recovery" `Quick
            test_follower_wide_bootstrap;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_codec_roundtrip;
            prop_codec_rejects_tamper;
            prop_decode_is_encode_image;
            prop_decode_agrees_with_oracle;
            prop_unframe_agrees_with_oracle;
            prop_version_fn_matches_scan;
            prop_writer_bytes_match_reference;
            prop_obs_writer_byte_invariance;
            prop_wal_off_invariance;
            prop_follower_equiv_recovery;
          ] );
    ]
