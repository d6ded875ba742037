(* The structural axis of a join or path step, shared by every layer:
   [Desc] is ancestor/descendant ([a//d]), [Child] is parent/child
   ([a/d]). *)
type t = Desc | Child
