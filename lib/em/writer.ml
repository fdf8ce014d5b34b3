type 'a t = {
  ctx : 'a Ctx.t;
  write_behind : int;  (* filled blocks that may wait before a batched drain *)
  mutable buffer : 'a array;  (* staged block, made at the first push *)
  mutable fill : int;
  mutable blocks : int list;  (* allocated block ids, newest first *)
  queue : (int * 'a array) Queue.t;  (* allocated, filled, not yet written *)
  mutable written : int;  (* elements already handed off a full buffer *)
  mutable closed : bool;
  mutable reclaimer : (int -> int) option ref option;
}

(* Write out every queued block, oldest first, as one scheduling window so a
   D-disk machine overlaps them into few parallel rounds; each block's
   deferred [B]-word charge is released as it reaches the device. *)
let drain w =
  if not (Queue.is_empty w.queue) then begin
    let b = Ctx.block_size w.ctx in
    let write_all () =
      while not (Queue.is_empty w.queue) do
        let id, payload = Queue.pop w.queue in
        Resilient.write w.ctx.Ctx.dev id payload;
        Mem.release w.ctx.Ctx.params w.ctx.Ctx.stats b
      done
    in
    if Queue.length w.queue > 1 then Stats.with_window w.ctx.Ctx.stats write_all
    else write_all ()
  end

let create ?(write_behind = 0) ctx =
  if write_behind < 0 then invalid_arg "Writer.create: negative write_behind";
  let b = Ctx.block_size ctx in
  Mem.charge ctx.Ctx.params ctx.Ctx.stats b;
  let w =
    {
      ctx;
      write_behind;
      buffer = [||];
      fill = 0;
      blocks = [];
      queue = Queue.create ();
      written = 0;
      closed = false;
      reclaimer = None;
    }
  in
  (* A queue of deferred writes is memory someone else may need: register a
     pressure callback that flushes it — the writes happen either way, the
     queue just loses its batching — so a long-lived write-behind writer
     (e.g. a partitioner's output stream) cannot starve mandatory charges
     made while it is open. *)
  if write_behind > 0 then
    w.reclaimer <-
      Some
        (Stats.add_reclaimer ctx.Ctx.stats (fun _deficit ->
             let queued = Queue.length w.queue in
             drain w;
             queued * b));
  w

let check_open w = if w.closed then invalid_arg "Writer: already closed"

(* Hand off one filled payload.  The block id is allocated here, eagerly, so
   allocation order — and with it slot placement and golden block ids — is
   identical whether or not the write itself is deferred.  Queueing is
   opportunistic: each pending payload is charged [B] words, and when the
   ledger has no room the queue drains and the payload goes straight to the
   device, so [mem_peak <= M] survives any write-behind depth. *)
let hand_off w payload =
  let id = Device.alloc w.ctx.Ctx.dev in
  w.blocks <- id :: w.blocks;
  if w.write_behind = 0 then Resilient.write w.ctx.Ctx.dev id payload
  else
    match Mem.charge w.ctx.Ctx.params w.ctx.Ctx.stats (Ctx.block_size w.ctx) with
    | () ->
        Queue.push (id, payload) w.queue;
        if Queue.length w.queue > w.write_behind then drain w
    | exception Mem.Memory_exceeded _ ->
        drain w;
        Resilient.write w.ctx.Ctx.dev id payload

let flush w =
  if w.fill > 0 then begin
    hand_off w (Array.sub w.buffer 0 w.fill);
    w.written <- w.written + w.fill;
    w.fill <- 0
  end

let push w e =
  check_open w;
  if Array.length w.buffer = 0 then w.buffer <- Array.make (Ctx.block_size w.ctx) e;
  w.buffer.(w.fill) <- e;
  w.fill <- w.fill + 1;
  if w.fill = Array.length w.buffer then flush w

let push_array w a = Array.iter (push w) a
let length w = w.written + w.fill

let release_buffer w =
  let b = Ctx.block_size w.ctx in
  (match w.reclaimer with
  | Some h ->
      Stats.remove_reclaimer w.ctx.Ctx.stats h;
      w.reclaimer <- None
  | None -> ());
  Mem.release w.ctx.Ctx.params w.ctx.Ctx.stats b;
  w.closed <- true;
  w.buffer <- [||]

let finish w =
  check_open w;
  flush w;
  drain w;
  let len = w.written in
  let blocks = Array.of_list (List.rev w.blocks) in
  release_buffer w;
  Vec.of_blocks w.ctx blocks len

let abandon w =
  check_open w;
  let b = Ctx.block_size w.ctx in
  (* Queued payloads die with the writer: release their deferred charges and
     free their (never-written) blocks along with the written ones. *)
  Mem.release w.ctx.Ctx.params w.ctx.Ctx.stats (Queue.length w.queue * b);
  Queue.clear w.queue;
  List.iter (Device.free w.ctx.Ctx.dev) w.blocks;
  w.blocks <- [];
  release_buffer w

let with_writer ?write_behind ctx f =
  let w = create ?write_behind ctx in
  match f w with
  | () -> finish w
  | exception e ->
      abandon w;
      raise e
