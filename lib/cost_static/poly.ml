(* Univariate node-count polynomials in the problem-class grid size.

   The ADI kernels' loop nests are affine in [grid], so their node
   counts are exact integer-valued polynomials of small degree; Newton
   divided differences over a handful of counted samples recover
   the coefficients, and evaluation at class-W/A sizes extrapolates to
   tapes the repository has never been able to record.  All arithmetic
   stays well inside the 2^53 exact-integer range of doubles. *)

type t = float array  (* monomial coefficients, degree ascending *)

let degree (p : t) = Array.length p - 1

(* Newton interpolation through (x, y) points, expanded to monomial
   coefficients.  Points must have distinct x. *)
let fit (points : (int * int) list) : t =
  let n = List.length points in
  if n = 0 then invalid_arg "Poly.fit: no points";
  let xs = Array.of_list (List.map (fun (x, _) -> float_of_int x) points) in
  let dd = Array.of_list (List.map (fun (_, y) -> float_of_int y) points) in
  (* divided differences in place: dd.(i) becomes f[x0..xi] *)
  for level = 1 to n - 1 do
    for i = n - 1 downto level do
      dd.(i) <- (dd.(i) -. dd.(i - 1)) /. (xs.(i) -. xs.(i - level))
    done
  done;
  (* expand the Newton form by Horner: c <- c * (x - x_i) + dd_i *)
  let coeffs = Array.make n 0. in
  coeffs.(0) <- dd.(n - 1);
  let deg = ref 0 in
  for i = n - 2 downto 0 do
    (* multiply by (x - xs.(i)) *)
    for j = !deg + 1 downto 1 do
      coeffs.(j) <- coeffs.(j - 1) -. (xs.(i) *. coeffs.(j))
    done;
    coeffs.(0) <- (-.xs.(i) *. coeffs.(0)) +. dd.(i);
    incr deg
  done;
  (* trim numerically-zero leading coefficients *)
  let last = ref (n - 1) in
  while !last > 0 && Float.abs coeffs.(!last) < 1e-6 do
    decr last
  done;
  Array.sub coeffs 0 (!last + 1)

let eval (p : t) (x : float) =
  let acc = ref 0. in
  for i = Array.length p - 1 downto 0 do
    acc := (!acc *. x) +. p.(i)
  done;
  !acc

let eval_int (p : t) (x : int) =
  int_of_float (Float.round (eval p (float_of_int x)))

let to_string ?(var = "g") (p : t) =
  let term i c =
    let c =
      let r = Float.round c in
      if Float.abs (c -. r) < 1e-6 then Printf.sprintf "%.0f" r
      else Printf.sprintf "%g" c
    in
    match i with
    | 0 -> c
    | 1 -> Printf.sprintf "%s*%s" c var
    | _ -> Printf.sprintf "%s*%s^%d" c var i
  in
  let terms = ref [] in
  Array.iteri
    (fun i c -> if Float.abs c > 1e-9 then terms := term i c :: !terms)
    p;
  if !terms = [] then "0" else String.concat " + " !terms
