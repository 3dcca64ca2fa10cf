(* Dynamic perturbation falsifier for guard certificates.

   The guard's static pass claims, per checkpoint variable, whether the
   paper's criterion ("derivative = 0 means uncritical") is sound.  The
   falsifier attacks that claim empirically: restore the program to a
   checkpoint boundary, perturb one element the reverse analysis called
   uncritical, finish the run, and compare the output bit for bit
   against an unperturbed continuation from the same boundary.  A
   divergence is a concrete unsoundness witness — the element influences
   the output through a channel the derivative cannot see (a branch, an
   integer, a kink) — and is promoted to critical.

   The boundary snapshot/restore is in-memory (every scalar of every
   checkpoint variable), not a file: perturbation trials must be cheap
   enough to run thousands of times.  That this restore is sufficient to
   reproduce the continuation is the checkpointing premise itself; it is
   verified per run by the control-stability check (two unperturbed
   continuations must agree bitwise) — when they do not, trials are
   skipped and [f_stable] is false rather than reporting junk witnesses. *)

type target = {
  t_var : string;
  t_kind : Criticality.kind;
  t_candidates : int array;  (** element indices claimed uncritical *)
}

type witness = {
  w_var : string;
  w_kind : Criticality.kind;
  w_element : int;
  w_boundary : int;
  w_delta : float;  (** perturbation applied (signed; int deltas exact) *)
  w_fd : float option;
      (** central-difference diagnostic for float witnesses: a large or
          NaN value means a kink, a near-zero value with a bitwise
          divergence means a control-flow escape AD cannot see *)
  w_golden : float;
  w_perturbed : float;
}

type var_tally = { y_var : string; y_trials : int; y_witnesses : int }

type outcome = {
  f_app : string;
  f_boundary : int;
  f_niter : int;
  f_trials : int;  (** trials actually executed *)
  f_stable : bool;  (** control continuation reproduced bitwise *)
  f_witnesses : witness list;
  f_tested : var_tally list;
}

(* ------------------------------------------------------------------ *)

let bits = Int64.bits_of_float

(* [targets_of_report report ~ints] lists what the naive AD verdict
   calls uncritical: float elements whose mask is false, and — when
   [ints] — every element of every [By_taint]-style integer variable in
   the report (integers never get a derivative, so the naive criterion
   has nothing to say about them; all are candidates). *)
let targets_of_report ?(ints = true) (report : Criticality.report) =
  List.filter_map
    (fun (v : Criticality.var_report) ->
      let candidates =
        match v.Criticality.kind with
        | Criticality.Float_var ->
            let acc = ref [] in
            Array.iteri
              (fun i critical -> if not critical then acc := i :: !acc)
              v.Criticality.mask;
            Array.of_list (List.rev !acc)
        | Criticality.Int_var ->
            if ints then Array.init (Array.length v.Criticality.mask) Fun.id
            else [||]
      in
      if Array.length candidates = 0 then None
      else
        Some
          {
            t_var = v.Criticality.name;
            t_kind = v.Criticality.kind;
            t_candidates = candidates;
          })
    report.Criticality.vars

let run ?boundary ?niter ?h ~trials ~seed ~targets (module A : App.S) =
  let niter = Option.value niter ~default:A.default_niter in
  let boundary = Option.value boundary ~default:0 in
  if boundary < 0 || boundary > niter then
    invalid_arg
      (Printf.sprintf "Falsifier.run: boundary %d outside [0, %d]" boundary
         niter);
  let module I = A.Float in
  let state = I.create () in
  I.run state ~from:0 ~until:boundary;
  let fvars = I.float_vars state
  and ivars = List.map (fun iv -> iv.Variable.view) (I.int_vars state) in
  (* Boundary snapshot: every scalar of every checkpoint variable. *)
  let fsnap = List.map (fun v -> (v, Variable.snapshot v)) fvars in
  let isnap = List.map (fun v -> (v, Variable.snapshot v)) ivars in
  let restore () =
    List.iter (fun (v, snap) -> Variable.restore v snap) fsnap;
    List.iter (fun (v, snap) -> Variable.restore v snap) isnap
  in
  let continuation () =
    I.run state ~from:boundary ~until:niter;
    Scvad_ad.Float_scalar.to_float (I.output state)
  in
  (* A perturbed continuation may crash outright (a perturbed integer
     driving an index out of range is the starkest possible control
     escape).  That is a divergence, not an analysis error. *)
  let continuation_opt () =
    match continuation () with
    | v -> Some v
    | exception (Invalid_argument _ | Failure _ | Division_by_zero) -> None
  in
  restore ();
  let control = continuation () in
  restore ();
  let control' = continuation () in
  let stable = bits control = bits control' in
  if not stable then
    {
      f_app = A.name;
      f_boundary = boundary;
      f_niter = niter;
      f_trials = 0;
      f_stable = false;
      f_witnesses = [];
      f_tested = [];
    }
  else begin
    let find_fvar name =
      List.find_opt (fun (v : float Variable.t) -> v.Variable.name = name) fvars
    in
    let find_ivar name =
      List.find_opt (fun (v : int Variable.t) -> v.Variable.name = name) ivars
    in
    (* Flatten targets to a sampling space of (target, element) pairs,
       dropping any whose variable the instance does not expose. *)
    let live =
      List.filter
        (fun t ->
          Array.length t.t_candidates > 0
          &&
          match t.t_kind with
          | Criticality.Float_var -> find_fvar t.t_var <> None
          | Criticality.Int_var -> find_ivar t.t_var <> None)
        targets
    in
    let total_candidates =
      List.fold_left (fun acc t -> acc + Array.length t.t_candidates) 0 live
    in
    if total_candidates = 0 then
      {
        f_app = A.name;
        f_boundary = boundary;
        f_niter = niter;
        f_trials = 0;
        f_stable = true;
        f_witnesses = [];
        f_tested = [];
      }
    else begin
      let rng = Random.State.make [| seed; boundary; Hashtbl.hash A.name |] in
      let pick k =
        (* k uniform in [0, total_candidates): walk the targets. *)
        let rec go k = function
          | [] -> assert false
          | t :: rest ->
              let n = Array.length t.t_candidates in
              if k < n then (t, t.t_candidates.(k)) else go (k - n) rest
        in
        go k live
      in
      let tallies = Hashtbl.create 8 in
      let bump name witness =
        let t, w = try Hashtbl.find tallies name with Not_found -> (0, 0) in
        Hashtbl.replace tallies name (t + 1, if witness then w + 1 else w)
      in
      let witnesses = ref [] in
      let perturb_float (v : float Variable.t) element =
        (* Perturb every scalar slot of the element with a relative
           step, so spe = 2 (FT's dcomplex) moves the whole element. *)
        let cell = Variable.read_element v element in
        let delta = Scvad_ad.Finite_diff.step ?h cell.(0) in
        Array.map_inplace (fun x -> x +. Scvad_ad.Finite_diff.step ?h x) cell;
        Variable.write_element v element cell;
        delta
      in
      let fd_diagnostic (v : float Variable.t) element =
        (* Central difference of the output along this element's
           direction — two more restore+continuation runs. *)
        let shift sign =
          restore ();
          let cell = Variable.read_element v element in
          let d = Scvad_ad.Finite_diff.step ?h cell.(0) in
          Array.map_inplace
            (fun x -> x +. (sign *. Scvad_ad.Finite_diff.step ?h x))
            cell;
          Variable.write_element v element cell;
          (continuation_opt (), d)
        in
        match (shift 1.0, shift (-1.0)) with
        (* lint: allow float-equality — exact-zero step guard: the
           quotient below divides by d, and Finite_diff.step returns an
           exact 0.0 only when h itself is 0.0 *)
        | (Some plus, d), (Some minus, _) when d <> 0.0 ->
            Some ((plus -. minus) /. (2.0 *. d))
        | _ -> None
      in
      for _ = 1 to trials do
        let t, element = pick (Random.State.int rng total_candidates) in
        restore ();
        let delta =
          match t.t_kind with
          | Criticality.Float_var ->
              let v = Option.get (find_fvar t.t_var) in
              perturb_float v element
          | Criticality.Int_var ->
              let v = Option.get (find_ivar t.t_var) in
              let d = 1 + Random.State.int rng 7 in
              let d = if Random.State.bool rng then d else -d in
              let cell = Variable.read_element v element in
              cell.(0) <- cell.(0) + d;
              Variable.write_element v element cell;
              float_of_int d
        in
        let out = continuation_opt () in
        let diverged =
          match out with Some o -> bits o <> bits control | None -> true
        in
        bump t.t_var diverged;
        if diverged then begin
          let fd =
            match t.t_kind with
            | Criticality.Float_var ->
                let v = Option.get (find_fvar t.t_var) in
                fd_diagnostic v element
            | Criticality.Int_var -> None
          in
          witnesses :=
            {
              w_var = t.t_var;
              w_kind = t.t_kind;
              w_element = element;
              w_boundary = boundary;
              w_delta = delta;
              w_fd = fd;
              w_golden = control;
              w_perturbed = Option.value out ~default:Float.nan;
            }
            :: !witnesses
        end
      done;
      let tested =
        Hashtbl.fold
          (fun name (t, w) acc ->
            { y_var = name; y_trials = t; y_witnesses = w } :: acc)
          tallies []
        |> List.sort (fun a b -> String.compare a.y_var b.y_var)
      in
      {
        f_app = A.name;
        f_boundary = boundary;
        f_niter = niter;
        f_trials = trials;
        f_stable = true;
        f_witnesses = List.rev !witnesses;
        f_tested = tested;
      }
    end
  end

(* Promote witness elements to critical in a report's masks.  The
   returned report shares nothing mutable with the input. *)
let harden (report : Criticality.report) (witnesses : witness list) =
  let promoted =
    List.map
      (fun (v : Criticality.var_report) ->
        let mask = Array.copy v.Criticality.mask in
        List.iter
          (fun w ->
            if
              w.w_var = v.Criticality.name
              && w.w_element >= 0
              && w.w_element < Array.length mask
            then mask.(w.w_element) <- true)
          witnesses;
        Criticality.of_mask ~name:v.Criticality.name ~shape:v.Criticality.shape
          ~spe:v.Criticality.spe ~kind:v.Criticality.kind mask)
      report.Criticality.vars
  in
  { report with Criticality.vars = promoted }
