(* Summaries of repeated measurements and the benchmark's result line. *)

let sorted xs = List.sort Float.compare xs

let median = function
  | [] -> invalid_arg "Stats.median: no samples"
  | xs ->
      let a = Array.of_list (sorted xs) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type metric = { name : string; unit_ : string; value : float }

(* Medians per metric name over several passes' metric lists, keeping
   the order of the first pass. *)
let median_metrics passes =
  match passes with
  | [] -> []
  | first :: _ ->
      List.map
        (fun m ->
          let values =
            List.filter_map
              (fun pass ->
                List.find_opt (fun x -> x.name = m.name) pass
                |> Option.map (fun x -> x.value))
              passes
          in
          { m with value = median values })
        first

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let metric m =
    Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
      (json_number m.value) m.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))
