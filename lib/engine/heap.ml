type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable size : int;
}

let create ~cmp = { cmp; data = [||]; size = 0 }
let length h = h.size
let is_empty h = h.size = 0

let grow h x =
  let cap = Array.length h.data in
  if h.size = cap then begin
    let ncap = Stdlib.max 8 (2 * cap) in
    let ndata = Array.make ncap x in
    Array.blit h.data 0 ndata 0 h.size;
    h.data <- ndata
  end

(* Both sifts use hole insertion: the moved element is held aside while
   parents (or children) shift into the hole, and is written back exactly
   once — one array store per level instead of the three a swap costs. *)
let sift_up h i0 =
  let x = h.data.(i0) in
  let i = ref i0 in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    h.cmp x h.data.(parent) < 0
  do
    let parent = (!i - 1) / 2 in
    h.data.(!i) <- h.data.(parent);
    i := parent
  done;
  h.data.(!i) <- x

let sift_down h i0 =
  let x = h.data.(i0) in
  let n = h.size in
  let i = ref i0 in
  let moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= n then moving := false
    else begin
      let r = l + 1 in
      let c = if r < n && h.cmp h.data.(r) h.data.(l) < 0 then r else l in
      if h.cmp h.data.(c) x < 0 then begin
        h.data.(!i) <- h.data.(c);
        i := c
      end
      else moving := false
    end
  done;
  h.data.(!i) <- x

let push h x =
  grow h x;
  h.data.(h.size) <- x;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let peek h = if h.size = 0 then None else Some h.data.(0)

let pop h =
  if h.size = 0 then None
  else begin
    let top = h.data.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.data.(0) <- h.data.(h.size);
      sift_down h 0
    end;
    Some top
  end

let clear h =
  h.data <- [||];
  h.size <- 0

let to_list_unordered h =
  let rec collect i acc = if i < 0 then acc else collect (i - 1) (h.data.(i) :: acc) in
  collect (h.size - 1) []
