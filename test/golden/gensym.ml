(* Generated names carry a process-wide counter ([output$689]);
   renumber them by first occurrence so digests, case names and rule
   paths do not move when an unrelated front-end change shifts the
   counter. *)
let renumber s =
  let seen = Hashtbl.create 16 in
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    Buffer.add_char b s.[!i];
    if s.[!i] = '$' then begin
      let j = ref (!i + 1) in
      while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
      if !j > !i + 1 then begin
        let digits = String.sub s (!i + 1) (!j - !i - 1) in
        let k =
          match Hashtbl.find_opt seen digits with
          | Some k -> k
          | None ->
              let k = Hashtbl.length seen in
              Hashtbl.add seen digits k;
              k
        in
        Buffer.add_string b (string_of_int k)
      end;
      i := !j
    end
    else incr i
  done;
  Buffer.contents b
