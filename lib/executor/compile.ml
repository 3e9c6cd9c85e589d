exception Compile_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Compile_error s)) fmt

let column_index (cols : Relalg.Ident.t array) id =
  let n = Array.length cols in
  let rec go i =
    if i = n then fail "unknown column %s" (Relalg.Ident.to_sql id)
    else if Relalg.Ident.equal cols.(i) id then i
    else go (i + 1)
  in
  go 0

let key_indices cols keys = Array.of_list (List.map (column_index cols) keys)
