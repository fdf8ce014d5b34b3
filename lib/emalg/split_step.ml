let log_src = Logs.Src.create "emalg.split" ~doc:"Distribution-sort split levels"

module Log = (val Logs.src_log log_src : Logs.LOG)

let default_target ctx ~n =
  let m = Em.Ctx.mem_capacity ctx in
  let base = Layout.big_load ctx in
  (* Target buckets around 2/3 of a leaf load, leaving room for the sampling
     fuzz, so stragglers that must recurse locally stay rare — but never
     exceed the single-pass distribution fanout when one pass can plausibly
     cover the input (a rare straggler recursion is cheaper than a whole
     extra pass over everything). *)
  let wanted = (((3 * n / 2) + base - 1) / base) + 1 in
  let single_pass =
    (* Conservative: the pivot array itself (up to M/8 words) will be charged
       while the writers are open. *)
    let b = Em.Ctx.block_size ctx in
    max 2 (min (Distribute.max_fanout ctx) ((Em.Ctx.free_words ctx - b - (m / 8)) / b))
  in
  let wanted =
    if wanted > single_pass && n <= single_pass * base then single_pass else wanted
  in
  max 2 (min (Sample_splitters.max_k ctx) (min (max 2 (m / 8)) (max 2 wanted)))

let split ?(consume = true) cmp v ~target_buckets =
  let ctx = Em.Vec.ctx v in
  Layout.require_min_geometry ctx;
  let n = Em.Vec.length v in
  let k = max 2 target_buckets in
  if Sample_splitters.gap_bound ctx.Em.Ctx.params ~n ~k >= n then begin
    (* Sampling cannot certify progress: split at the exact median. *)
    Log.debug (fun m -> m "split: sampling bound useless at n=%d k=%d; exact-median fallback" n k);
    let median = Em_select.select cmp v ~rank:((n + 1) / 2) in
    let less, equal_count, greater = Distribute.three_way cmp v ~pivot:median in
    if equal_count <> 1 then
      invalid_arg "Split_step.split: duplicate keys (tag elements first)";
    if consume then Em.Vec.free v;
    let middle = Em.Writer.with_writer ctx (fun w -> Em.Writer.push w median) in
    [| less; middle; greater |]
  end
  else begin
    Log.debug (fun m -> m "split: n=%d into %d buckets" n k);
    let pivots = Sample_splitters.find cmp v ~k in
    Em.Ctx.with_words ctx (k - 1) (fun () ->
        Distribute.by_pivots_deep cmp ~pivots ~owned:consume v)
  end

(* One inline-tagged distribution pass: route each raw element, paired with
   its position, into the bucket its tagged value selects. *)
let distribute_tagging_pass cmp ~tagged_pivots pctx v =
  let tcmp = Order.tagged cmp in
  let nbuckets = Array.length tagged_pivots + 1 in
  let writers = Array.init nbuckets (fun _ -> Em.Writer.create pctx) in
  (match
     Em.Phase.with_label (Em.Vec.ctx v) "distribute" (fun () ->
         let pos = ref (-1) in
         Scan.iter
           (fun e ->
             incr pos;
             let pair = (e, !pos) in
             Em.Writer.push writers.(Distribute.bucket_index tcmp tagged_pivots pair) pair)
           v)
   with
  | () -> ()
  | exception e ->
      Array.iter Em.Writer.abandon writers;
      raise e);
  Array.map Em.Writer.finish writers

let split_tagging cmp v ~target_buckets =
  let ctx = Em.Vec.ctx v in
  Layout.require_min_geometry ctx;
  let n = Em.Vec.length v in
  let k = max 2 target_buckets in
  let tcmp = Order.tagged cmp in
  let pctx : ('a * int) Em.Ctx.t = Em.Ctx.linked ctx in
  if Sample_splitters.gap_bound ctx.Em.Ctx.params ~n ~k >= n then begin
    (* Degenerate geometry: materialise the tagged copy and take the
       distinct-key path (which falls back to an exact median split). *)
    Log.debug (fun m -> m "split_tagging: degenerate geometry at n=%d k=%d" n k);
    let tv = Scan.mapi_into pctx (fun i e -> (e, i)) v in
    split tcmp tv ~target_buckets
  end
  else begin
    Log.debug (fun m -> m "split_tagging: n=%d into %d buckets" n k);
    let pivots = Sample_splitters.find_tagging cmp v ~k in
    Em.Ctx.with_words ctx (k - 1) (fun () ->
        let fanout =
          let b = Em.Ctx.block_size ctx in
          max 2 (min (Distribute.max_fanout ctx) ((Em.Ctx.free_words ctx - b) / b))
        in
        if k <= fanout then distribute_tagging_pass cmp ~tagged_pivots:pivots pctx v
        else begin
          (* Inline pass into <= fanout super-buckets of consecutive target
             buckets, then finish each super-bucket on the tagged pairs. *)
          let stride = (k + fanout - 1) / fanout in
          let nsuper_pivots =
            (k / stride) - (if k mod stride = 0 then 1 else 0)
          in
          let super_pivots =
            Array.init nsuper_pivots (fun j -> pivots.(((j + 1) * stride) - 1))
          in
          let super = distribute_tagging_pass cmp ~tagged_pivots:super_pivots pctx v in
          let parts =
            Array.mapi
              (fun j sub ->
                let lo = j * stride in
                let hi = min (lo + stride) k in
                let sub_pivots = Array.sub pivots lo (hi - 1 - lo) in
                Distribute.by_pivots_deep tcmp ~pivots:sub_pivots ~owned:true sub)
              super
          in
          Array.concat (Array.to_list parts)
        end)
  end
