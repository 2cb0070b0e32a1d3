(* Copy the longest run that needs no escape in one [add_substring], then
   escape the byte that ends it. *)
let add buf s =
  let len = String.length s in
  let run = ref 0 in
  for i = 0 to len - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      if i > !run then Buffer.add_substring buf s !run (i - !run);
      run := i + 1;
      Buffer.add_char buf '\\';
      match c with
      | '"' | '\\' -> Buffer.add_char buf c
      | '\n' -> Buffer.add_char buf 'n'
      | '\r' -> Buffer.add_char buf 'r'
      | '\t' -> Buffer.add_char buf 't'
      | c ->
        let hex = "0123456789abcdef" in
        Buffer.add_string buf "u00";
        Buffer.add_char buf hex.[Char.code c lsr 4];
        Buffer.add_char buf hex.[Char.code c land 15]
    end
  done;
  if !run = 0 then Buffer.add_string buf s
  else if len > !run then Buffer.add_substring buf s !run (len - !run)
