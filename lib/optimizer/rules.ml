(* The DSL source of every registered rule, in registry order. *)
let dsl = Rules_join.dsl @ Rules_select.dsl @ Rules_agg.dsl @ Rules_extra.dsl

let all : Rule.t list = List.map Dsl.Rdsl.compile dsl
let dsl_rules = List.map (fun (r : Dsl.Rdsl.rule) -> (r.name, r)) dsl

let rdsl_of name = List.assoc_opt name dsl_rules

let () =
  (* The registry is the unit of identity for the whole framework; duplicate
     names would corrupt rule tracking. *)
  let names = List.map (fun (r : Rule.t) -> r.name) all in
  let sorted = List.sort_uniq String.compare names in
  assert (List.length sorted = List.length names)

let names = List.map (fun (r : Rule.t) -> r.name) all
let count = List.length all
let find name = List.find_opt (fun (r : Rule.t) -> String.equal r.name name) all

let find_exn name =
  match find name with
  | Some r -> r
  | None -> invalid_arg ("Rules.find_exn: unknown rule " ^ name)

let nth i =
  match List.nth_opt all i with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Rules.nth: index %d out of range" i)

(* Content identity of the registry: per-rule fingerprints, each the
   digest of the rule's DSL term (via [Rdsl.compile]). The
   incremental-maintenance manifest and the warm-start matrix key both
   hang off these. *)
let fingerprints () =
  List.map (fun (r : Rule.t) -> (r.name, r.fingerprint)) all

(* A reproducible single-rule body edit: the named rule keeps its name,
   pattern and behavior, but its content fingerprint changes — a
   behavior-preserving refactor of the rule's implementation, the
   commonest edit incremental maintenance exists for. The maintenance
   layer cannot know the edit preserved behavior, so it must recompute
   every artifact depending on the rule's body (and nothing else); since
   behavior is in fact unchanged, the recomputed results must equal the
   pre-edit ones byte for byte, which is what the CI warm-edit job and
   the bench `incremental` experiment check. Tests that need a
   behavior-*changing* edit build one directly with [Rule.make]. *)
let simulate_edit ?(rules = all) name =
  let found = ref false in
  let edited =
    List.map
      (fun (r : Rule.t) ->
        if String.equal r.name name then begin
          found := true;
          (* The new fingerprint is derived from the old one, so it is as
             reproducible as the edit. *)
          { r with
            fingerprint =
              Digest.to_hex (Digest.string ("simulated-edit\x00" ^ r.fingerprint)) }
        end
        else r)
      rules
  in
  if not !found then invalid_arg ("Rules.simulate_edit: unknown rule " ^ name);
  edited

let pattern_xml name =
  Option.map (fun (r : Rule.t) -> Dsl.Pattern.to_xml r.pattern) (find name)

let all_patterns_xml () =
  let entry (r : Rule.t) =
    Printf.sprintf "<rule name=\"%s\">%s</rule>" r.name (Dsl.Pattern.to_xml r.pattern)
  in
  "<rules>" ^ String.concat "" (List.map entry all) ^ "</rules>"
