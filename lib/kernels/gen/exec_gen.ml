(* Build-time generator of a Walker kernel's loop functions and its
   executor (see lib/kernels/dune, which runs it once per kernel):

     exec_gen.exe KERNEL ARITY BODY...

   KERNEL names the kernel (for the header), ARITY is the number of
   arrays in the tuple its declaration packs, and each BODY is the name
   of one chain class's body in chain order, as <kernel>_body.ml
   defines it: [BODY (a0, ..., a(ARITY-1), i)] runs iteration [i].

   The output, spliced between the body file and the declaration,
   defines per class

   - [BODY_items]: the interpreted loop function over an items slice,
     called through the declaration's class table by the reference
     walk (run_tiled) and the parallel engine;
   - [BODY_run] and [BODY_row]: the executor's closed loop functions,
     one streaming the ids [lo .. hi], one walking the items
     [items.(lo) .. items.(hi)]. They take the arrays as arguments, so
     inside the loop the arrays live in registers rather than behind a
     closure environment;

   and [exec], the executor: a loop over tiles and chain copies (a
   time-tiled schedule holds several), with the chain positions
   unrolled inside it, each calling its class's loop functions
   directly. A row with runs in the walk's run table (one with at most
   8 runs in the Reorder.Shape run index, see Walker.of_shape) streams
   them; any other row walks its items slice. *)

let () =
  match Array.to_list Sys.argv with
  | _ :: kernel :: arity :: (_ :: _ as bodies) ->
    let arity = int_of_string arity in
    let arrays =
      String.concat ", " (List.init arity (Printf.sprintf "a%d"))
    in
    let p fmt = Printf.printf fmt in
    p "(* The loop functions and executor of kernel %s, generated at build\n" kernel;
    p "   time by lib/kernels/gen/exec_gen.ml; do not edit. *)\n";
    List.iter
      (fun body ->
        p "\nlet %s_items (%s) fl lo hi =\n" body arrays;
        p "  for idx = lo to hi - 1 do\n";
        p "    %s (%s, Array.unsafe_get fl idx)\n" body arrays;
        p "  done\n";
        p "\nlet[@inline never] %s_run (%s, lo, hi) =\n" body arrays;
        p "  for v = lo to hi do\n";
        p "    %s (%s, v)\n" body arrays;
        p "  done\n";
        p "\nlet[@inline never] %s_row (items, %s, lo, hi) =\n" body arrays;
        p "  for idx = lo to hi do\n";
        p "    %s (%s, Array.unsafe_get items idx)\n" body arrays;
        p "  done\n")
      bodies;
    let chain = List.length bodies in
    p "\nlet exec (%s) (w : Walker.walk) =\n" arrays;
    p "  let row_ptr = w.Walker.row_ptr and items = w.Walker.flat_items in\n";
    p "  let run_ptr = w.Walker.run_ptr and run_lo = w.Walker.run_lo in\n";
    p "  let run_len = w.Walker.run_len and copies = w.Walker.copies in\n";
    p "  for t = 0 to w.Walker.tiles - 1 do\n";
    p "    for copy = 0 to copies - 1 do\n";
    p "      let base = ((t * copies) + copy) * %d in\n" chain;
    List.iteri
      (fun c body ->
        p "      (let r = base + %d in\n" c;
        p "       let klo = Array.unsafe_get run_ptr r in\n";
        p "       let khi = Array.unsafe_get run_ptr (r + 1) in\n";
        p "       if khi > klo then\n";
        p "         for k = klo to khi - 1 do\n";
        p "           let lo = Array.unsafe_get run_lo k in\n";
        p "           %s_run (%s, lo, lo + Array.unsafe_get run_len k - 1)\n" body arrays;
        p "         done\n";
        p "       else\n";
        p "         %s_row\n" body;
        p "           ( items, %s,\n" arrays;
        p "             Array.unsafe_get row_ptr r,\n";
        p "             Array.unsafe_get row_ptr (r + 1) - 1 ));\n")
      bodies;
    p "      ()\n";
    p "    done\n";
    p "  done\n"
  | _ ->
    prerr_endline "usage: exec_gen.exe KERNEL ARITY BODY...";
    exit 2
