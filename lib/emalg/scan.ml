(* Streams that are consumed in full run with [prefetch = D - 1] readers and
   [write_behind = D - 1] writers, so a D-disk machine overlaps their block
   I/Os into ~N/(DB) rounds.  [prefix] stops early and stays unbuffered:
   read-ahead past the cut-off would read blocks a single-disk run never
   touches, breaking the D-invariance of per-block counts. *)

let read_ahead v = Em.Ctx.disks (Em.Vec.ctx v) - 1
let behind ctx = Em.Ctx.disks ctx - 1

(* Canonical optional-argument convention (see DESIGN.md): entry points take
   [?prefetch] (reader look-ahead, default [D - 1]) before the required
   arguments; producers pair it with an implicit [write_behind = D - 1]. *)
let ahead ?prefetch v = match prefetch with Some p -> p | None -> read_ahead v

let iter ?prefetch f v =
  Em.Reader.with_reader ~prefetch:(ahead ?prefetch v) v (fun r ->
      while Em.Reader.has_next r do
        f (Em.Reader.next r)
      done)

let fold ?prefetch f init v =
  let acc = ref init in
  iter ?prefetch (fun e -> acc := f !acc e) v;
  !acc

let map_into ?prefetch ctx f v =
  Em.Writer.with_writer ~write_behind:(behind ctx) ctx (fun w ->
      iter ?prefetch (fun e -> Em.Writer.push w (f e)) v)

let mapi_into ?prefetch ctx f v =
  let i = ref 0 in
  Em.Writer.with_writer ~write_behind:(behind ctx) ctx (fun w ->
      iter ?prefetch
        (fun e ->
          Em.Writer.push w (f !i e);
          incr i)
        v)

let copy ?prefetch v = map_into ?prefetch (Em.Vec.ctx v) (fun e -> e) v

let filter keep v =
  let ctx = Em.Vec.ctx v in
  Em.Writer.with_writer ~write_behind:(behind ctx) ctx (fun w ->
      iter (fun e -> if keep e then Em.Writer.push w e) v)

let append w v = iter (Em.Writer.push w) v

let prefix v count =
  if count < 0 then invalid_arg "Scan.prefix: negative count";
  let ctx = Em.Vec.ctx v in
  Em.Writer.with_writer ctx (fun w ->
      Em.Reader.with_reader v (fun r ->
          let remaining = ref (min count (Em.Vec.length v)) in
          while !remaining > 0 do
            Em.Writer.push w (Em.Reader.next r);
            decr remaining
          done))
let rank_of cmp v x = fold (fun acc e -> if cmp e x <= 0 then acc + 1 else acc) 0 v
let count p v = fold (fun acc e -> if p e then acc + 1 else acc) 0 v

let chunks ?prefetch ~size f v =
  if size < 1 then invalid_arg "Scan.chunks: size must be >= 1";
  let ctx = Em.Vec.ctx v in
  Em.Reader.with_reader ~prefetch:(ahead ?prefetch v) v (fun r ->
      while Em.Reader.has_next r do
        let load = Em.Reader.take r size in
        Em.Ctx.with_words ctx (Array.length load) (fun () -> f load)
      done)

(* Spill an array block-directly rather than through a [Writer]: the payload
   slices come straight out of [a] (which the caller has charged), so whole
   groups of D blocks can be written in one scheduling window without any
   queue memory.  Each group allocates its ids first and then writes them —
   at D = 1 the group size is 1, reproducing the writer's strict alloc/write
   interleave (same ids, same order, same costs), and the transient [B]-word
   staging charge mirrors the writer's lifetime buffer. *)
let vec_of_array_io ctx a =
  let b = Em.Ctx.block_size ctx in
  let d = Em.Ctx.disks ctx in
  let n = Array.length a in
  let nblocks = (n + b - 1) / b in
  let dev = ctx.Em.Ctx.dev in
  Em.Ctx.with_words ctx b (fun () ->
      let ids = Array.make (max 1 nblocks) (-1) in
      (try
         let written = ref 0 in
         while !written < nblocks do
           let group = min d (nblocks - !written) in
           for k = 0 to group - 1 do
             ids.(!written + k) <- Em.Device.alloc dev
           done;
           let write_group () =
             for k = 0 to group - 1 do
               let bi = !written + k in
               let payload = Array.sub a (bi * b) (min b (n - (bi * b))) in
               Em.Resilient.write dev ids.(bi) payload
             done
           in
           if group > 1 then Em.Ctx.io_window ctx write_group else write_group ();
           written := !written + group
         done
       with e ->
         Array.iter (fun id -> if id >= 0 then Em.Device.free dev id) ids;
         raise e);
      Em.Vec.of_blocks ctx (Array.sub ids 0 nblocks) n)

(* Symmetric block-direct load: groups of D block reads per window, blitting
   into the destination the caller accounts for.  At D = 1 this is the same
   ascending one-block-at-a-time read sequence the buffered reader issued. *)
let array_of_vec_io v =
  match Em.Vec.length v with
  | 0 -> [||]
  | n ->
      let ctx = Em.Vec.ctx v in
      let b = Em.Ctx.block_size ctx in
      let d = Em.Ctx.disks ctx in
      let ids = Em.Vec.block_ids v in
      let nblocks = Array.length ids in
      let dev = ctx.Em.Ctx.dev in
      Em.Ctx.with_words ctx b (fun () ->
          let out = ref [||] in
          let read_block bi =
            let payload = Em.Resilient.read dev ids.(bi) in
            if Array.length !out = 0 && Array.length payload > 0 then
              out := Array.make n payload.(0);
            Array.blit payload 0 !out (bi * b) (Array.length payload)
          in
          let loaded = ref 0 in
          while !loaded < nblocks do
            let group = min d (nblocks - !loaded) in
            let base = !loaded in
            let read_group () =
              for k = 0 to group - 1 do
                read_block (base + k)
              done
            in
            if group > 1 then Em.Ctx.io_window ctx read_group else read_group ();
            loaded := !loaded + group
          done;
          !out)

let with_loaded v f =
  let ctx = Em.Vec.ctx v in
  Em.Ctx.with_words ctx (Em.Vec.length v) (fun () -> f (array_of_vec_io v))
