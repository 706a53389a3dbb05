(** Named metrics and the benchmark's result line. *)

type metric = { name : string; unit_ : string; value : float }

val valid_name : string -> bool
(** Does the name match [[A-Za-z0-9_.-]+]? *)

val human : metric -> string
(** ["name = value unit"], for the readable part of the output. *)

val result_json :
  correct:bool -> attempted:int -> failed:int -> metric list -> string
(** The one-line JSON object the run ends with: [correct], [attempted],
    [failed] and [metrics] (each [{"value", "unit"}]). A non-finite
    value is written as [0] and forces [correct] to [false]. *)
