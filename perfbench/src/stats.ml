let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let rank ~bp n = max 1 (min n (((bp * n) + 9_999) / 10_000))

let percentile_sorted ~bp a = a.(rank ~bp (Array.length a) - 1)

let percentile ~bp xs =
  match xs with [] -> nan | _ -> percentile_sorted ~bp (sorted xs)

let beyond ~bp n = if n = 0 then 0 else n - rank ~bp n

type tail = { bp : int; value : float; beyond : int; count : int }

let ladder = [ 9_999; 9_990; 9_900; 9_500; 9_000; 7_500; 5_000 ]

let tail xs =
  let a = sorted xs in
  let count = Array.length a in
  List.find_map
    (fun bp ->
      let b = beyond ~bp count in
      if b >= 10 then
        Some { bp; value = percentile_sorted ~bp a; beyond = b; count }
      else None)
    ladder

let pct_name bp =
  if bp mod 100 = 0 then Printf.sprintf "p%d" (bp / 100)
  else
    let s = Printf.sprintf "p%d.%02d" (bp / 100) (bp mod 100) in
    (* p99.90 -> p99.9 *)
    if s.[String.length s - 1] = '0' then String.sub s 0 (String.length s - 1)
    else s
