type metric = { name : string; unit_ : string; value : float }

let valid_name s =
  s <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let human m = Printf.sprintf "%s = %.6g %s" m.name m.value m.unit_

let result_json ~correct ~attempted ~failed metrics =
  let finite = List.for_all (fun m -> Float.is_finite m.value) metrics in
  let field m =
    let v = if Float.is_finite m.value then m.value else 0. in
    Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" m.name v
      m.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct && finite) attempted failed
    (String.concat ", " (List.map field metrics))
