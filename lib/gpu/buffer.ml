type t = {
  label : string;
  device : int;
  elems : int;
  data : float array option;
}

let host_device = -1
let elem_bytes = 4

let create ?(phantom = false) ~device ~label elems =
  if elems < 0 then invalid_arg "Buffer.create: negative size";
  let data = if phantom then None else Some (Array.make elems 0.0) in
  { label; device; elems; data }

let label t = t.label
let device t = t.device
let length t = t.elems
let is_phantom t = t.data = None

let check_index t i op =
  if i < 0 || i >= t.elems then
    invalid_arg (Printf.sprintf "Buffer.%s: index %d out of bounds for %s[%d]" op i t.label t.elems)

let get t i =
  check_index t i "get";
  match t.data with None -> 0.0 | Some a -> a.(i)

let set t i v =
  check_index t i "set";
  match t.data with None -> () | Some a -> a.(i) <- v

let fill t v = match t.data with None -> () | Some a -> Array.fill a 0 t.elems v

let init t f =
  match t.data with
  | None -> ()
  | Some a ->
    for i = 0 to t.elems - 1 do
      a.(i) <- f i
    done

let check_range t pos len op =
  if pos < 0 || len < 0 || pos + len > t.elems then
    invalid_arg
      (Printf.sprintf "Buffer.%s: range %d+%d out of bounds for %s[%d]" op pos len t.label t.elems)

let blit ~src ~src_pos ~dst ~dst_pos ~len =
  check_range src src_pos len "blit";
  check_range dst dst_pos len "blit";
  match (src.data, dst.data) with
  | Some s, Some d -> Array.blit s src_pos d dst_pos len
  | None, _ | _, None -> ()

let blit_strided ~src ~src_pos ~src_stride ~dst ~dst_pos ~dst_stride ~count =
  if count > 0 then begin
    check_index src (src_pos + ((count - 1) * src_stride)) "blit_strided";
    check_index src src_pos "blit_strided";
    check_index dst (dst_pos + ((count - 1) * dst_stride)) "blit_strided";
    check_index dst dst_pos "blit_strided";
    match (src.data, dst.data) with
    | Some s, Some d ->
      for k = 0 to count - 1 do
        d.(dst_pos + (k * dst_stride)) <- s.(src_pos + (k * src_stride))
      done
    | None, _ | _, None -> ()
  end

let to_array t = match t.data with None -> [||] | Some a -> Array.copy a
