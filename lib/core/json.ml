type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                             *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_to_string f =
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.17g" f in
    (* Shortest representation that round-trips, so output stays tidy. *)
    let s =
      let short = Printf.sprintf "%.12g" f in
      if float_of_string short = f then short else s
    in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E' || c = 'n') s then s
    else s ^ ".0"

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_to_string f)
  | String s -> escape_to buf s
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        write buf x)
      xs;
    Buffer.add_char buf ']'
  | Assoc kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_to buf k;
        Buffer.add_char buf ':';
        write buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

let pp ppf v = Format.pp_print_string ppf (to_string v)

(* ------------------------------------------------------------------ *)
(* Parsing                                                              *)

exception Parse_error of string

let fail pos msg = raise (Parse_error (Printf.sprintf "at %d: %s" pos msg))

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      true
    | _ -> false
  do
    ()
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> fail st.pos (Printf.sprintf "expected %c, found %c" c c')
  | None -> fail st.pos (Printf.sprintf "expected %c, found end of input" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st.pos ("expected " ^ word)

let utf8_add buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let hex4 st =
  let v = ref 0 in
  for _ = 1 to 4 do
    (match peek st with
    | Some c -> (
      let d =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | _ -> fail st.pos "bad \\u escape"
      in
      v := (!v * 16) + d)
    | None -> fail st.pos "truncated \\u escape");
    advance st
  done;
  !v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st.pos "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
      advance st;
      match peek st with
      | None -> fail st.pos "truncated escape"
      | Some c ->
        (match c with
        | '"' -> advance st; Buffer.add_char buf '"'
        | '\\' -> advance st; Buffer.add_char buf '\\'
        | '/' -> advance st; Buffer.add_char buf '/'
        | 'n' -> advance st; Buffer.add_char buf '\n'
        | 'r' -> advance st; Buffer.add_char buf '\r'
        | 't' -> advance st; Buffer.add_char buf '\t'
        | 'b' -> advance st; Buffer.add_char buf '\b'
        | 'f' -> advance st; Buffer.add_char buf '\012'
        | 'u' ->
          advance st;
          let cp = hex4 st in
          if cp >= 0xD800 && cp <= 0xDBFF then begin
            (* high surrogate: require a following \uXXXX low surrogate *)
            expect st '\\';
            expect st 'u';
            let lo = hex4 st in
            if lo < 0xDC00 || lo > 0xDFFF then
              fail st.pos "unpaired surrogate"
            else
              utf8_add buf
                (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
          end
          else if cp >= 0xDC00 && cp <= 0xDFFF then
            fail st.pos "unpaired surrogate"
          else utf8_add buf cp
        | c -> fail st.pos (Printf.sprintf "bad escape \\%c" c));
        go ())
    | Some c when Char.code c < 0x20 -> fail st.pos "raw control character"
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  let continue = ref true in
  while !continue do
    match peek st with
    | Some ('0' .. '9' | '-' | '+') -> advance st
    | Some ('.' | 'e' | 'E') ->
      is_float := true;
      advance st
    | _ -> continue := false
  done;
  let s = String.sub st.src start (st.pos - start) in
  if !is_float then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail start ("bad number " ^ s)
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
      (* out of int range: degrade to float *)
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail start ("bad number " ^ s))

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st.pos "unexpected end of input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' -> String (parse_string st)
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      List []
    end
    else begin
      let items = ref [ parse_value st ] in
      skip_ws st;
      while peek st = Some ',' do
        advance st;
        items := parse_value st :: !items;
        skip_ws st
      done;
      expect st ']';
      List (List.rev !items)
    end
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Assoc []
    end
    else begin
      let field () =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        (k, v)
      in
      let items = ref [ field () ] in
      skip_ws st;
      while peek st = Some ',' do
        advance st;
        items := field () :: !items;
        skip_ws st
      done;
      expect st '}';
      Assoc (List.rev !items)
    end
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st.pos (Printf.sprintf "unexpected character %c" c)

let of_string s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos = String.length s then Ok v
    else Error (Printf.sprintf "at %d: trailing garbage" st.pos)
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                            *)

let member key = function Assoc kvs -> List.assoc_opt key kvs | _ -> None
let fields = function Assoc kvs -> kvs | _ -> []
let to_bool = function Bool b -> Some b | _ -> None
let to_int = function Int i -> Some i | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_str = function String s -> Some s | _ -> None
let to_list = function List xs -> Some xs | _ -> None
