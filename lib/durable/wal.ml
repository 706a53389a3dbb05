(* CRC-framed JSON-lines write-ahead log records.

   Framing: a record encodes to a flat Json object whose first field is
   the LSN and whose last field is a CRC-32 over the object as it would
   be WITHOUT the crc field — the stored bytes before [,"crc":], closed
   by '}'. The readers check that CRC over the bytes as stored, then
   read the fields in the writer's fixed order in one positional pass,
   accepting only the writer's own rendering (canonical ints, the
   writer's escapes, no whitespace): a line decodes exactly when
   [encode] reproduces it byte for byte. There is no second framing
   layer, no re-encoding, and the log stays plain JSONL. *)

module Json = Mvcc_obs.Json
module Sink = Mvcc_obs.Sink

type src = Init | Self | Txn of int

type record =
  | State of { entity : string; value : int }
  | Begin of { txn : int; ts : int }
  | Op of { txn : int; entity : string; write : bool; src : src option }
  | Install of { txn : int; entity : string; value : int; wts : int }
  | Commit of { txn : int }
  | Abort of { txn : int; reason : string }
  | Checkpoint of { snapshot : string; commits : int }

(* CRC-32 (IEEE 802.3, reflected), table-driven. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

(* Slicing-by-8: eight chained tables let the checksum take eight bytes
   per iteration with independent lookups instead of one
   serially-dependent lookup per byte. [crc_tables.(0)] is the classic
   table above. The writer, both readers and {!crc32} share this one
   loop; the standard check value is pinned in test_durable. *)
let crc_tables =
  lazy
    (let t0 = Lazy.force crc_table in
     let ts = Array.make 8 t0 in
     for k = 1 to 7 do
       ts.(k) <-
         Array.map (fun c -> t0.(c land 0xff) lxor (c lsr 8)) ts.(k - 1)
     done;
     ts)

let crc32_bytes s ~len =
  let ts = Lazy.force crc_tables in
  let t0 = ts.(0) and t1 = ts.(1) and t2 = ts.(2) and t3 = ts.(3) in
  let t4 = ts.(4) and t5 = ts.(5) and t6 = ts.(6) and t7 = ts.(7) in
  let byte i = Char.code (Bytes.unsafe_get s i) in
  let c = ref 0xffffffff in
  let i = ref 0 in
  while !i + 8 <= len do
    let j = !i in
    let lo =
      !c
      lxor (byte j
           lor (byte (j + 1) lsl 8)
           lor (byte (j + 2) lsl 16)
           lor (byte (j + 3) lsl 24))
    in
    c :=
      Array.unsafe_get t7 (lo land 0xff)
      lxor Array.unsafe_get t6 ((lo lsr 8) land 0xff)
      lxor Array.unsafe_get t5 ((lo lsr 16) land 0xff)
      lxor Array.unsafe_get t4 ((lo lsr 24) land 0xff)
      lxor Array.unsafe_get t3 (byte (j + 4))
      lxor Array.unsafe_get t2 (byte (j + 5))
      lxor Array.unsafe_get t1 (byte (j + 6))
      lxor Array.unsafe_get t0 (byte (j + 7));
    i := j + 8
  done;
  while !i < len do
    c := Array.unsafe_get t0 ((!c lxor byte !i) land 0xff) lxor (!c lsr 8);
    incr i
  done;
  !c

let crc32 s =
  crc32_bytes (Bytes.unsafe_of_string s) ~len:(String.length s)
  lxor 0xffffffff

let fields = function
  | State { entity; value } ->
      [ ("rec", Json.Str "state"); ("entity", Json.Str entity);
        ("value", Json.Int value) ]
  | Begin { txn; ts } ->
      [ ("rec", Json.Str "begin"); ("txn", Json.Int txn); ("ts", Json.Int ts) ]
  | Op { txn; entity; write; src } ->
      [ ("rec", Json.Str "op"); ("txn", Json.Int txn);
        ("entity", Json.Str entity); ("write", Json.Bool write) ]
      @ (match src with
        | None -> []
        | Some Init -> [ ("src", Json.Str "init") ]
        | Some Self -> [ ("src", Json.Str "self") ]
        | Some (Txn w) -> [ ("src", Json.Int w) ])
  | Install { txn; entity; value; wts } ->
      [ ("rec", Json.Str "install"); ("txn", Json.Int txn);
        ("entity", Json.Str entity); ("value", Json.Int value);
        ("wts", Json.Int wts) ]
  | Commit { txn } -> [ ("rec", Json.Str "commit"); ("txn", Json.Int txn) ]
  | Abort { txn; reason } ->
      [ ("rec", Json.Str "abort"); ("txn", Json.Int txn);
        ("reason", Json.Str reason) ]
  | Checkpoint { snapshot; commits } ->
      [ ("rec", Json.Str "checkpoint"); ("snapshot", Json.Str snapshot);
        ("commits", Json.Int commits) ]

let frame fs =
  let body = Json.obj fs in
  Printf.sprintf "%s,\"crc\":%d}"
    (String.sub body 0 (String.length body - 1))
    (crc32 body)

let encode ~lsn r = frame (("lsn", Json.Int lsn) :: fields r)

(* -- Reading: one positional pass over the stored bytes -- *)

exception Malformed

(* The CRC a framed line carries: {!crc32} of its first [len] bytes
   closed by '}' — what [emit_line] and [frame] checksum. *)
let framed_crc line ~len =
  let c = crc32_bytes (Bytes.unsafe_of_string line) ~len in
  let t = Lazy.force crc_table in
  Array.unsafe_get t ((c lxor Char.code '}') land 0xff)
  lxor (c lsr 8) lxor 0xffffffff

let is_digit ch = ch >= '0' && ch <= '9'

(* Whether [lit] occurs in [line] at offset [p]. *)
let lit_at line p lit =
  let l = String.length lit in
  p >= 0
  && p + l <= String.length line
  && begin
       let i = ref 0 in
       while
         !i < l && String.unsafe_get line (p + !i) = String.unsafe_get lit !i
       do
         incr i
       done;
       !i = l
     end

(* The offset of the trailing [,"crc":N}], where [N] is a canonical
   non-negative int equal to {!framed_crc} of the bytes before it; -1
   if there is no such tail or the CRC does not match. *)
let crc_field line =
  let n = String.length line in
  let key = ",\"crc\":" in
  let d = ref (n - 2) in
  while !d >= 0 && is_digit (String.unsafe_get line !d) do
    decr d
  done;
  let first = !d + 1 and digits = n - 2 - !d in
  let k = first - String.length key in
  if
    n < 2
    || line.[n - 1] <> '}'
    || digits < 1
    || digits > 10 (* a CRC-32 has at most 10 decimal digits *)
    || (digits > 1 && line.[first] = '0')
    || k < 1
    || not (lit_at line k key)
  then -1
  else
    let v = ref 0 in
    for i = first to n - 2 do
      v := (10 * !v) + Char.code line.[i] - 48
    done;
    if framed_crc line ~len:k = !v then k else -1

(* Cursor primitives: each reads at [!pos] and advances past what it
   read, raising [Malformed] on anything the writer would not emit. *)

let has_lit line pos lit =
  lit_at line !pos lit
  && begin
       pos := !pos + String.length lit;
       true
     end

let lit line pos l = if not (has_lit line pos l) then raise Malformed

let peek line pos =
  if !pos >= String.length line then raise Malformed
  else String.unsafe_get line !pos

(* [string_of_int]'s image only: no '+', no leading zero, no "-0", no
   overflow. *)
let get_int line pos =
  let n = String.length line in
  let neg = peek line pos = '-' in
  if neg then incr pos;
  let start = !pos in
  let acc = ref 0 in
  while !pos < n && is_digit (String.unsafe_get line !pos) do
    let d = Char.code (String.unsafe_get line !pos) - 48 in
    if neg then begin
      (* [(min_int + d) / 10] rounds toward zero: the ceiling *)
      if !acc < (min_int + d) / 10 then raise Malformed;
      acc := (10 * !acc) - d
    end
    else begin
      if !acc > (max_int - d) / 10 then raise Malformed;
      acc := (10 * !acc) + d
    end;
    incr pos
  done;
  let len = !pos - start in
  if len = 0 || (line.[start] = '0' && (neg || len > 1)) then
    raise Malformed;
  !acc

let hex_digit = function
  | '0' .. '9' as ch -> Char.code ch - 48
  | 'a' .. 'f' as ch -> Char.code ch - 87
  | _ -> raise Malformed

(* A quoted string as [put_str] renders it: raw bytes except ['"'],
   ['\\'] and control characters, which carry exactly the writer's
   escapes. The common unescaped case is one [String.sub]. *)
let get_str line pos =
  lit line pos "\"";
  let n = String.length line in
  let start = !pos in
  let plain ch = ch <> '"' && ch <> '\\' && ch >= ' ' in
  while !pos < n && plain (String.unsafe_get line !pos) do
    incr pos
  done;
  if peek line pos = '"' then begin
    incr pos;
    String.sub line start (!pos - 1 - start)
  end
  else begin
    let b = Buffer.create (2 * (!pos - start)) in
    Buffer.add_substring b line start (!pos - start);
    let rec go () =
      let ch = peek line pos in
      incr pos;
      if ch = '"' then Buffer.contents b
      else if ch = '\\' then begin
        let e = peek line pos in
        incr pos;
        (match e with
        | '"' | '\\' -> Buffer.add_char b e
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
            lit line pos "00";
            let hi = hex_digit (peek line pos) in
            incr pos;
            let lo = hex_digit (peek line pos) in
            incr pos;
            let code = (16 * hi) + lo in
            (* only the control characters without a short escape *)
            if code >= 0x20 || code = 0x0a || code = 0x0d || code = 0x09
            then raise Malformed;
            Buffer.add_char b (Char.chr code)
        | _ -> raise Malformed);
        go ()
      end
      else if ch < ' ' then raise Malformed
      else begin
        Buffer.add_char b ch;
        go ()
      end
    in
    go ()
  end

let get_value line pos =
  match peek line pos with
  | '"' -> Json.Str (get_str line pos)
  | 't' ->
      lit line pos "true";
      Json.Bool true
  | 'f' ->
      lit line pos "false";
      Json.Bool false
  | _ -> Json.Int (get_int line pos)

let unframe line =
  let k = crc_field line in
  if k < 0 then None
  else
    try
      let pos = ref 0 in
      lit line pos "{";
      let rec go acc =
        let key = get_str line pos in
        lit line pos ":";
        let acc = (key, get_value line pos) :: acc in
        if !pos = k then List.rev acc
        else begin
          lit line pos ",";
          go acc
        end
      in
      Some (go [])
    with Malformed -> None

(* The fields in [emit_line]'s order, keys fused with the literals
   around them exactly as it writes them. *)
let decode line =
  let k = crc_field line in
  if k < 0 then None
  else
    try
      let pos = ref 0 in
      let lit = lit line pos and int () = get_int line pos in
      let str () = get_str line pos in
      lit "{\"lsn\":";
      let lsn = int () in
      lit ",\"rec\":\"";
      let r =
        match peek line pos with
        | 's' ->
            lit "state\",\"entity\":";
            let entity = str () in
            lit ",\"value\":";
            State { entity; value = int () }
        | 'b' ->
            lit "begin\",\"txn\":";
            let txn = int () in
            lit ",\"ts\":";
            Begin { txn; ts = int () }
        | 'o' ->
            lit "op\",\"txn\":";
            let txn = int () in
            lit ",\"entity\":";
            let entity = str () in
            let write =
              if has_lit line pos ",\"write\":true" then true
              else begin
                lit ",\"write\":false";
                false
              end
            in
            let src =
              if !pos = k then None
              else begin
                lit ",\"src\":";
                if has_lit line pos "\"init\"" then Some Init
                else if has_lit line pos "\"self\"" then Some Self
                else Some (Txn (int ()))
              end
            in
            (* a read carries its source, a write never does *)
            if write = (src <> None) then raise Malformed;
            Op { txn; entity; write; src }
        | 'i' ->
            lit "install\",\"txn\":";
            let txn = int () in
            lit ",\"entity\":";
            let entity = str () in
            lit ",\"value\":";
            let value = int () in
            lit ",\"wts\":";
            Install { txn; entity; value; wts = int () }
        | 'a' ->
            lit "abort\",\"txn\":";
            let txn = int () in
            lit ",\"reason\":";
            Abort { txn; reason = str () }
        | 'c' ->
            if has_lit line pos "commit\",\"txn\":" then
              Commit { txn = int () }
            else begin
              lit "checkpoint\",\"snapshot\":";
              let snapshot = str () in
              lit ",\"commits\":";
              Checkpoint { snapshot; commits = int () }
            end
        | _ -> raise Malformed
      in
      if !pos <> k then raise Malformed;
      Some (lsn, r)
    with Malformed -> None

(* Fast framing: each append renders the record's line into a reusable
   per-writer scratch with unsafe byte stores, checksums the body in one
   slicing-by-8 pass, and blits the framed line into the writer's
   buffer — no intermediate field lists, strings, or Printf.
   Byte-identical to [encode] (qcheck-pinned in test_durable). *)
let[@inline] put_byte s pos x =
  Bytes.unsafe_set s !pos x;
  incr pos

let put_raw s pos x =
  Bytes.blit_string x 0 s !pos (String.length x);
  pos := !pos + String.length x

(* non-negative ints (the common case) render without allocating *)
let rec put_digits s pos i =
  if i >= 10 then put_digits s pos (i / 10);
  put_byte s pos (Char.unsafe_chr (48 + (i mod 10)))

let put_int s pos i =
  if i < 0 then put_raw s pos (string_of_int i) else put_digits s pos i

let put_str s pos x =
  put_byte s pos '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> put_raw s pos "\\\""
      | '\\' -> put_raw s pos "\\\\"
      | '\n' -> put_raw s pos "\\n"
      | '\r' -> put_raw s pos "\\r"
      | '\t' -> put_raw s pos "\\t"
      | ch when Char.code ch < 0x20 ->
          put_raw s pos (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> put_byte s pos ch)
    x;
  put_byte s pos '"'

let emit_line ~scratch buf ~lsn r =
  let s = !scratch in
  (* strict upper bound on the line: ~160 bytes of keys, literals, int
     digits and crc tail, plus the worst escape blow-up (6x) of the one
     free-form string a record can carry *)
  let bound =
    192
    + 6
      * String.length
          (match r with
          | State { entity; _ } | Op { entity; _ } | Install { entity; _ } ->
              entity
          | Abort { reason; _ } -> reason
          | Checkpoint { snapshot; _ } -> snapshot
          | Begin _ | Commit _ -> "")
  in
  let s =
    if Bytes.length s < bound then begin
      let s' = Bytes.create (max bound (2 * Bytes.length s)) in
      scratch := s';
      s'
    end
    else s
  in
  let pos = ref 0 in
  let byte x = put_byte s pos x in
  let raw x = put_raw s pos x in
  let int x = put_int s pos x in
  let str x = put_str s pos x in
  (* keys and literal values fused into one blit per fragment *)
  raw "{\"lsn\":";
  int lsn;
  (match r with
  | State { entity; value } ->
      raw ",\"rec\":\"state\",\"entity\":";
      str entity;
      raw ",\"value\":";
      int value
  | Begin { txn; ts } ->
      raw ",\"rec\":\"begin\",\"txn\":";
      int txn;
      raw ",\"ts\":";
      int ts
  | Op { txn; entity; write; src } -> (
      raw ",\"rec\":\"op\",\"txn\":";
      int txn;
      raw ",\"entity\":";
      str entity;
      raw (if write then ",\"write\":true" else ",\"write\":false");
      match src with
      | None -> ()
      | Some Init -> raw ",\"src\":\"init\""
      | Some Self -> raw ",\"src\":\"self\""
      | Some (Txn w) ->
          raw ",\"src\":";
          int w)
  | Install { txn; entity; value; wts } ->
      raw ",\"rec\":\"install\",\"txn\":";
      int txn;
      raw ",\"entity\":";
      str entity;
      raw ",\"value\":";
      int value;
      raw ",\"wts\":";
      int wts
  | Commit { txn } ->
      raw ",\"rec\":\"commit\",\"txn\":";
      int txn
  | Abort { txn; reason } ->
      raw ",\"rec\":\"abort\",\"txn\":";
      int txn;
      raw ",\"reason\":";
      str reason
  | Checkpoint { snapshot; commits } ->
      raw ",\"rec\":\"checkpoint\",\"snapshot\":";
      str snapshot;
      raw ",\"commits\":";
      int commits);
  (* the CRC covers the body as closed by '}'; the framed line replaces
     that brace with the crc field *)
  let c = ref (crc32_bytes s ~len:!pos) in
  let t = Lazy.force crc_table in
  c := Array.unsafe_get t ((!c lxor Char.code '}') land 0xff) lxor (!c lsr 8);
  raw ",\"crc\":";
  int (!c lxor 0xffffffff);
  byte '}';
  Buffer.add_subbytes buf s 0 !pos

type window = { max_records : int option; max_commits : int option }

let window ?records ?commits () =
  let pos = function
    | Some k when k < 1 -> invalid_arg "Wal.window: thresholds must be >= 1"
    | x -> x
  in
  match (pos records, pos commits) with
  | (None, None) -> invalid_arg "Wal.window: at least one threshold"
  | (max_records, max_commits) -> { max_records; max_commits }

type boundary = { b_bytes : int; b_lsn : int; b_acked : int }

type writer = {
  buf : Buffer.t;
  scratch : Bytes.t ref;
  chan : out_channel option;
  win : window option;
  obs : Sink.t;
  mutable lsn : int;
  mutable closed : bool;
  mutable forced_bytes : int;
  mutable forced_lsn : int;
  mutable acked : int;
  mutable pend_records : int;
  mutable pend_commits : int;
  mutable n_forces : int;
  mutable boundaries_rev : boundary list;
}

let writer ?path ?window ?(obs = Sink.noop) () =
  {
    buf = Buffer.create 4096;
    scratch = ref (Bytes.create 256);
    chan = Option.map open_out path;
    win = window;
    obs;
    lsn = 0;
    closed = false;
    forced_bytes = 0;
    forced_lsn = 0;
    acked = 0;
    pend_records = 0;
    pend_commits = 0;
    n_forces = 0;
    boundaries_rev = [];
  }

let force w =
  if w.pend_records > 0 then begin
    (* pure accounting, like the engine's [?obs]: the bytes written are
       identical with or without a sink (a qcheck-pinned invariant) *)
    let sp = Sink.span_start w.obs "wal.force" in
    let batch_records = w.pend_records and batch_commits = w.pend_commits in
    let before = w.forced_bytes in
    let len = Buffer.length w.buf in
    Option.iter
      (fun oc ->
        (* the simulated fsync: the batch reaches the disk image here
           and nowhere else *)
        output_string oc (Buffer.sub w.buf w.forced_bytes (len - w.forced_bytes));
        flush oc)
      w.chan;
    w.forced_bytes <- len;
    w.forced_lsn <- w.lsn;
    w.acked <- w.acked + w.pend_commits;
    w.pend_records <- 0;
    w.pend_commits <- 0;
    w.n_forces <- w.n_forces + 1;
    w.boundaries_rev <-
      { b_bytes = len; b_lsn = w.lsn; b_acked = w.acked } :: w.boundaries_rev;
    Sink.incr w.obs "wal.forces";
    Sink.set_gauge w.obs "wal.force-boundary-lsn" w.lsn;
    Sink.set_gauge w.obs "wal.forced-bytes" w.forced_bytes;
    Sink.set_gauge w.obs "wal.acked-commits" w.acked;
    Sink.span_finish w.obs sp ~attrs:(fun () ->
        [
          ("force_boundary", Json.Int w.lsn);
          ("records", Json.Int batch_records);
          ("commits", Json.Int batch_commits);
          ("bytes", Json.Int (len - before));
          ("acked", Json.Int w.acked);
        ])
  end

let append w r =
  let lsn = w.lsn in
  emit_line ~scratch:w.scratch w.buf ~lsn r;
  Buffer.add_char w.buf '\n';
  w.lsn <- lsn + 1;
  w.pend_records <- w.pend_records + 1;
  (match r with Commit _ -> w.pend_commits <- w.pend_commits + 1 | _ -> ());
  Sink.incr w.obs "wal.appends";
  Sink.span_event w.obs "wal.append" ~attrs:(fun () ->
      [ ("lsn", Json.Int lsn) ]);
  (match w.win with
  | None -> force w
  | Some { max_records; max_commits } ->
      let met = function Some k, n -> n >= k | None, _ -> false in
      if met (max_records, w.pend_records) || met (max_commits, w.pend_commits)
      then force w);
  lsn

let next_lsn w = w.lsn
let contents w = Buffer.contents w.buf
let forced_bytes w = w.forced_bytes
let forced_lsn w = w.forced_lsn
let acked_commits w = w.acked
let forces w = w.n_forces
let force_boundaries w = List.rev w.boundaries_rev
let durable_contents w = Buffer.sub w.buf 0 w.forced_bytes

let close w =
  if not w.closed then begin
    (* the open batch flushes exactly once: [closed] guards the force *)
    force w;
    w.closed <- true;
    Option.iter close_out w.chan
  end

type read = { records : (int * record) list; stats : Mvcc_obs.Jsonl.stats }

let read_string s =
  let records, stats = Mvcc_obs.Jsonl.read_string decode s in
  { records; stats }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let records, stats = Mvcc_obs.Jsonl.read_channel decode ic in
      { records; stats })
