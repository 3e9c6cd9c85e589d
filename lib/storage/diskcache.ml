(* Versioned on-disk key/value store for warm-start caches.

   Values are [Marshal]ed, so a payload is only readable by the exact
   code that wrote it — the header therefore embeds a format version
   *and* [Sys.ocaml_version] (plus any caller-supplied version salt),
   and every load falls back to a miss rather than an error: a cache
   directory from an older build, a different compiler, or a crashed
   writer behaves like an empty cache, never like corruption.

   Safety against torn/flipped payloads matters more than usual here
   because [Marshal.from_bytes] on garbage can crash the runtime, not
   just raise: the header carries an MD5 of the payload bytes and the
   payload is only unmarshaled after the digest checks out.

   Writes go to a temp file in the same directory and are renamed into
   place, so concurrent writers (parallel validation domains, two
   overlapping CI jobs) race benignly: readers see either the old
   complete entry or the new complete entry, never a partial one. *)

let magic = "QTRDC1"
(* 2: manifest rule records lost their source field *)
let format_version = 2

type t = { root : string; version : string }

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ())
  end

let create ?(version = "") ~dir () =
  mkdir_p dir;
  { root = dir;
    version =
      Printf.sprintf "%d/%s/%s" format_version Sys.ocaml_version version }

let dir t = t.root

(* Keys are arbitrary strings (often long hash concatenations); the
   filename is always the MD5 hex of the key, and the key itself is
   echoed inside the entry so filename collisions degrade to misses. *)
let path t ~ns ~key =
  Filename.concat (Filename.concat t.root ns) (Digest.to_hex (Digest.string key) ^ ".bin")

let store t ~ns ~key v =
  try
    let dirname = Filename.concat t.root ns in
    mkdir_p dirname;
    let payload = Marshal.to_bytes v [] in
    let file = path t ~ns ~key in
    let tmp = Filename.temp_file ~temp_dir:dirname "qtrdc" ".tmp" in
    let oc = open_out_bin tmp in
    Printf.fprintf oc "%s\n%s\n%s\n%s\n" magic t.version key
      (Digest.to_hex (Digest.bytes payload));
    output_bytes oc payload;
    close_out oc;
    Sys.rename tmp file;
    true
  with Sys_error _ -> false

let load t ~ns ~key =
  let file = path t ~ns ~key in
  if not (Sys.file_exists file) then None
  else
    try
      let ic = open_in_bin file in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let m = input_line ic in
          let v = input_line ic in
          let k = input_line ic in
          let d = input_line ic in
          if m <> magic || v <> t.version || k <> key then None
          else begin
            let len = in_channel_length ic - pos_in ic in
            let payload = really_input_string ic len in
            if Digest.to_hex (Digest.string payload) <> d then None
            else Some (Marshal.from_string payload 0)
          end)
    with Sys_error _ | End_of_file | Failure _ -> None

let entries t ~ns =
  let dirname = Filename.concat t.root ns in
  if Sys.file_exists dirname && Sys.is_directory dirname then
    Array.fold_left
      (fun acc f -> if Filename.check_suffix f ".bin" then acc + 1 else acc)
      0 (Sys.readdir dirname)
  else 0
