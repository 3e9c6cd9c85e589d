(* Suite manifest: the persisted record incremental maintenance diffs a
   live rule registry against.

   A manifest remembers (a) the content fingerprint of every rule the
   artifacts were built with and (b) named opaque sections — Marshal'd
   payloads whose types only the writing layer knows (lib/core stores
   the per-target generation records and the edge-cost matrix cells
   there; this module never depends on those types, keeping the storage
   layer at the bottom of the library stack).

   Persistence rides on Diskcache (ns "manifest"), so manifests inherit
   its versioning, digest checking and atomic-rename guarantees: a
   manifest from an older build or a torn write loads as None and the
   caller falls back to a cold rebuild. A small index entry (well-known
   key "index") lists every manifest key in the cache,
   most-recently-saved last, so CLI surfaces like `qtr stats` can find
   "the latest manifest" without knowing the exact pipeline
   configuration that produced it. *)

type rule_info = {
  name : string;
  fingerprint : string;
  pattern_fp : string;
}

type t = {
  config : string;
  rules : rule_info list;
  sections : (string * string) list;
}

let make ~config ~rules = { config; rules; sections = [] }

let section t name = List.assoc_opt name t.sections

let set_section t name payload =
  { t with
    sections = (name, payload) :: List.remove_assoc name t.sections }

type change = Body_changed | Pattern_changed | Added | Removed

let change_to_string = function
  | Body_changed -> "body-changed"
  | Pattern_changed -> "pattern-changed"
  | Added -> "added"
  | Removed -> "removed"

(* Classify every drift between the recorded registry and the live one.
   Unchanged rules are omitted; the result is sorted by rule name. The
   body/pattern split is the reuse lever: a body-only edit (same
   pattern_fp) invalidates exactly the slices whose dependency sets
   mention the rule, while a pattern change or an added rule can match
   trees the recorded artifacts never saw and forces a full rebuild. *)
let diff t ~rules =
  let old_tbl = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace old_tbl r.name r) t.rules;
  let changes = ref [] in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (r : rule_info) ->
      Hashtbl.replace seen r.name ();
      match Hashtbl.find_opt old_tbl r.name with
      | None -> changes := (r.name, Added) :: !changes
      | Some o ->
        if not (String.equal o.fingerprint r.fingerprint) then
          changes :=
            ( r.name,
              if String.equal o.pattern_fp r.pattern_fp then Body_changed
              else Pattern_changed )
            :: !changes)
    rules;
  List.iter
    (fun (o : rule_info) ->
      if not (Hashtbl.mem seen o.name) then
        changes := (o.name, Removed) :: !changes)
    t.rules;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !changes

let ns = "manifest"
let index_key = "index"

let index dc =
  match (Diskcache.load dc ~ns ~key:index_key : (string * string) list option) with
  | Some l -> l
  | None -> []

let load dc ~key = (Diskcache.load dc ~ns ~key : t option)

let save dc ~key t =
  let ok = Diskcache.store dc ~ns ~key t in
  if ok then begin
    let others = List.filter (fun (k, _) -> k <> key) (index dc) in
    ignore (Diskcache.store dc ~ns ~key:index_key (others @ [ (key, t.config) ]))
  end;
  ok
