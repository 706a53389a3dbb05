module Span = Mvcc_obs.Span

type frame = { id : int; t0 : float; mutable children : float }

type acc = {
  mutable total : float;
  mutable self : float;
  mutable n : int;
  mutable durs : float list;
}

type t = {
  ring : Span.t;
  mutable stack : frame list;
  accs : (string, acc) Hashtbl.t;
}

let create () =
  {
    ring = Span.create ~capacity:65_536 ~clock:Clock.now ();
    stack = [];
    accs = Hashtbl.create 64;
  }

let acc t name =
  match Hashtbl.find_opt t.accs name with
  | Some a -> a
  | None ->
      let a = { total = 0.; self = 0.; n = 0; durs = [] } in
      Hashtbl.add t.accs name a;
      a

let fold a ~dur ~self =
  a.total <- a.total +. dur;
  a.self <- a.self +. self;
  a.n <- a.n + 1

let charge_parent t dur =
  match t.stack with p :: _ -> p.children <- p.children +. dur | [] -> ()

let span ?(keep = false) t name f =
  let parent = match t.stack with p :: _ -> p.id | [] -> -1 in
  let fr =
    { id = Span.start t.ring ~parent name; t0 = Clock.now (); children = 0. }
  in
  t.stack <- fr :: t.stack;
  let finish () =
    let dur = Clock.now () -. fr.t0 in
    Span.finish t.ring fr.id;
    t.stack <- List.tl t.stack;
    charge_parent t dur;
    let a = acc t name in
    fold a ~dur ~self:(dur -. fr.children);
    if keep then a.durs <- dur :: a.durs
  in
  Fun.protect ~finally:finish f

let timed t a f =
  let t0 = Clock.now () in
  let r = f () in
  let dur = Clock.now () -. t0 in
  charge_parent t dur;
  fold a ~dur ~self:dur;
  r

let get t name = Hashtbl.find_opt t.accs name
let total t name = match get t name with Some a -> a.total | None -> 0.
let self t name = match get t name with Some a -> a.self | None -> 0.
let count t name = match get t name with Some a -> a.n | None -> 0
let samples t name = match get t name with Some a -> a.durs | None -> []

let write_jsonl t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Span.write_jsonl oc t.ring)
