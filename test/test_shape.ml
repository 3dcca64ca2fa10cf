(* Tests for shapes. *)

open Scvad_nd

let test_shape_basics () =
  let s = Shape.create [ 12; 13; 13; 5 ] in
  Alcotest.(check int) "size" 10140 (Shape.size s);
  Alcotest.(check int) "rank" 4 (Shape.rank s);
  Alcotest.(check int) "stride 0" (13 * 13 * 5) (Shape.stride s 0);
  Alcotest.(check int) "stride 3" 1 (Shape.stride s 3);
  Alcotest.(check int) "offset" (((((2 * 13) + 3) * 13) + 4) * 5)
    (Shape.offset s [| 2; 3; 4; 0 |]);
  Alcotest.(check string) "to_string" "[12x13x13x5]" (Shape.to_string s)

let test_shape_errors () =
  Alcotest.check_raises "negative dim"
    (Invalid_argument "Shape.create: dimensions must be positive") (fun () ->
      ignore (Shape.create [ 3; -1 ]));
  let s = Shape.create [ 2; 3 ] in
  Alcotest.check_raises "oob"
    (Invalid_argument "Shape.offset: out of bounds") (fun () ->
      ignore (Shape.offset s [| 1; 3 |]));
  Alcotest.check_raises "rank mismatch"
    (Invalid_argument "Shape.offset: rank mismatch") (fun () ->
      ignore (Shape.offset s [| 1 |]))

let test_shape_iter_order () =
  let s = Shape.create [ 2; 3; 4 ] in
  let expected = ref 0 in
  Shape.iter s (fun idx ->
      Alcotest.(check int) "row-major order" !expected (Shape.offset s idx);
      incr expected);
  Alcotest.(check int) "visited all" (Shape.size s) !expected

let shape_gen =
  QCheck.Gen.(list_size (int_range 1 4) (int_range 1 7))

let prop_offset_roundtrip =
  QCheck.Test.make ~count:200 ~name:"offset ∘ index_of_offset = id"
    QCheck.(make ~print:(fun l -> String.concat "x" (List.map string_of_int l))
              shape_gen)
    (fun dims ->
      let s = Shape.create dims in
      let ok = ref true in
      for off = 0 to Shape.size s - 1 do
        if Shape.offset s (Shape.index_of_offset s off) <> off then ok := false
      done;
      !ok)

let suites =
  [ ( "nd.shape",
      [ Alcotest.test_case "basics" `Quick test_shape_basics;
        Alcotest.test_case "errors" `Quick test_shape_errors;
        Alcotest.test_case "iter order" `Quick test_shape_iter_order;
        QCheck_alcotest.to_alcotest prop_offset_roundtrip ] ) ]
