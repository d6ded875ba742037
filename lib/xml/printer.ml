let escape_into buf ~quot s =
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' when quot -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s

let escape_text s =
  let buf = Buffer.create (String.length s) in
  escape_into buf ~quot:false s;
  Buffer.contents buf

let escape_attr s =
  let buf = Buffer.create (String.length s) in
  escape_into buf ~quot:true s;
  Buffer.contents buf

let add_attrs buf attrs =
  List.iter
    (fun { Tree.attr_name; attr_value; _ } ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf attr_name;
      Buffer.add_string buf "=\"";
      escape_into buf ~quot:true attr_value;
      Buffer.add_char buf '"')
    attrs

let rec add_node buf = function
  | Tree.Element e ->
    Buffer.add_char buf '<';
    Buffer.add_string buf e.tag;
    add_attrs buf e.attrs;
    if e.children = [] then Buffer.add_string buf "/>"
    else begin
      Buffer.add_char buf '>';
      List.iter (add_node buf) e.children;
      Buffer.add_string buf "</";
      Buffer.add_string buf e.tag;
      Buffer.add_char buf '>'
    end
  | Tree.Text t -> escape_into buf ~quot:false t.content
  | Tree.Cdata t ->
    Buffer.add_string buf "<![CDATA[";
    Buffer.add_string buf t.content;
    Buffer.add_string buf "]]>"
  | Tree.Comment t ->
    Buffer.add_string buf "<!--";
    Buffer.add_string buf t.content;
    Buffer.add_string buf "-->"
  | Tree.Pi t ->
    Buffer.add_string buf "<?";
    Buffer.add_string buf t.content;
    Buffer.add_string buf "?>"

let render nodes =
  let buf = Buffer.create 256 in
  List.iter (add_node buf) nodes;
  Buffer.contents buf


let render_indented ?(indent = 2) nodes =
  let buf = Buffer.create 256 in
  let pad level = Buffer.add_string buf (String.make (level * indent) ' ') in
  let rec go level node =
    match node with
    | Tree.Element e when e.children <> [] && List.for_all is_structural e.children ->
      pad level;
      Buffer.add_char buf '<';
      Buffer.add_string buf e.tag;
      add_attrs buf e.attrs;
      Buffer.add_string buf ">\n";
      List.iter (go (level + 1)) e.children;
      pad level;
      Buffer.add_string buf "</";
      Buffer.add_string buf e.tag;
      Buffer.add_string buf ">\n"
    | node ->
      pad level;
      add_node buf node;
      Buffer.add_char buf '\n'
  and is_structural = function
    | Tree.Element _ | Tree.Comment _ | Tree.Pi _ -> true
    | Tree.Text _ | Tree.Cdata _ -> false
  in
  List.iter (go 0) nodes;
  Buffer.contents buf
