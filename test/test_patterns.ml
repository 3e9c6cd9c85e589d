(* Rule patterns: matching, composition, and the XML export API. *)
open Relalg
module L = Logical
module P = Dsl.Pattern
module S = Scalar

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let get1 = L.Get { table = "t1"; alias = "x" }
let get2 = L.Get { table = "t2"; alias = "y" }
let a = Ident.make "x" "a"
let d = Ident.make "y" "d"

let join =
  L.Join { kind = L.Inner; pred = S.eq (S.col a) (S.col d); left = get1; right = get2 }

let filter_join = L.Filter { pred = S.true_; child = join }

let test_matches () =
  check bool_t "any matches anything" true (P.matches P.Any get1);
  check bool_t "join pattern" true
    (P.matches (P.Op (L.KJoin L.Inner, [ P.Any; P.Any ])) join);
  check bool_t "wrong kind" false
    (P.matches (P.Op (L.KJoin L.LeftOuter, [ P.Any; P.Any ])) join);
  check bool_t "depth two" true
    (P.matches
       (P.Op (L.KFilter, [ P.Op (L.KJoin L.Inner, [ P.Any; P.Any ]) ]))
       filter_join);
  check bool_t "root mismatch, anywhere hit" true
    ((not (P.matches (P.Op (L.KJoin L.Inner, [ P.Any; P.Any ])) filter_join))
    && P.matches_anywhere (P.Op (L.KJoin L.Inner, [ P.Any; P.Any ])) filter_join);
  check bool_t "get leaf pattern" true (P.matches (P.Op (L.KGet, [])) get1)

let test_size_leaves () =
  let p = P.Op (L.KFilter, [ P.Op (L.KJoin L.Inner, [ P.Any; P.Any ]) ]) in
  check int_t "size counts concrete" 2 (P.size p);
  check int_t "leaves counts any" 2 (P.leaves p);
  check int_t "any sizes" 0 (P.size P.Any)

let test_substitute_leaf () =
  let p = P.Op (L.KJoin L.Inner, [ P.Any; P.Any ]) in
  let q = P.Op (L.KGroupBy, [ P.Any ]) in
  (match P.substitute_leaf p 0 q with
  | Some (P.Op (L.KJoin L.Inner, [ P.Op (L.KGroupBy, [ P.Any ]); P.Any ])) -> ()
  | _ -> Alcotest.fail "substitute at 0");
  (match P.substitute_leaf p 1 q with
  | Some (P.Op (L.KJoin L.Inner, [ P.Any; P.Op (L.KGroupBy, [ P.Any ]) ])) -> ()
  | _ -> Alcotest.fail "substitute at 1");
  check bool_t "out of range" true (P.substitute_leaf p 2 q = None)

let test_xml_round_trip_registry () =
  List.iter
    (fun (r : Optimizer.Rule.t) ->
      match P.of_xml (P.to_xml r.pattern) with
      | Ok p ->
        check bool_t (r.name ^ " xml round trip") true (p = r.pattern)
      | Error e -> Alcotest.failf "%s: %s" r.name e)
    Optimizer.Rules.all

let test_xml_errors () =
  check bool_t "garbage" true (Result.is_error (P.of_xml "<op>"));
  check bool_t "unknown kind" true
    (Result.is_error (P.of_xml "<op kind=\"Nope\"><any/></op>"));
  check bool_t "trailing" true (Result.is_error (P.of_xml "<any/><any/>"))

let test_registry () =
  check bool_t "at least 40 rules" true (Optimizer.Rules.count >= 40);
  check bool_t "find works" true (Optimizer.Rules.find "JoinCommute" <> None);
  check bool_t "find missing" true (Optimizer.Rules.find "NoSuchRule" = None);
  check bool_t "pattern_xml" true (Optimizer.Rules.pattern_xml "JoinCommute" <> None);
  let doc = Optimizer.Rules.all_patterns_xml () in
  check bool_t "document lists every rule" true
    (List.for_all
       (fun n ->
         let marker = "name=\"" ^ n ^ "\"" in
         let rec find i =
           i + String.length marker <= String.length doc
           && (String.sub doc i (String.length marker) = marker || find (i + 1))
         in
         find 0)
       Optimizer.Rules.names)

let test_compose () =
  let p1 = P.Op (L.KJoin L.Inner, [ P.Any; P.Any ]) in
  let p2 = P.Op (L.KGroupBy, [ P.Any ]) in
  let cs = Core.Query_gen.compose p1 p2 in
  (* 2 slots in p1 + 1 slot in p2 + 2 root combinations *)
  check int_t "candidate count" 5 (List.length cs);
  (* ordered by size *)
  let sizes = List.map P.size cs in
  check bool_t "sorted by size" true (List.sort compare sizes = sizes);
  check bool_t "root join present" true
    (List.mem (P.Op (L.KJoin L.Inner, [ p1; p2 ])) cs)

let suite =
  [ ( "optimizer.pattern",
      [ Alcotest.test_case "matching" `Quick test_matches;
        Alcotest.test_case "size/leaves" `Quick test_size_leaves;
        Alcotest.test_case "substitute leaf" `Quick test_substitute_leaf;
        Alcotest.test_case "xml round trip (all rules)" `Quick test_xml_round_trip_registry;
        Alcotest.test_case "xml errors" `Quick test_xml_errors;
        Alcotest.test_case "registry" `Quick test_registry;
        Alcotest.test_case "pair composition" `Quick test_compose ] ) ]
