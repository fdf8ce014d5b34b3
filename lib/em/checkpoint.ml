(* A reliable single-slot checkpoint store.

   Restartable drivers persist their progress here between steps.  The slot
   models a fixed, reliable region of the disk (checkpoint area): saving and
   loading are metered as real block I/Os — ceil(words/B) of them — charged
   to the shared stats under dedicated phase labels, but the region is
   outside the faulted device, so the injector never touches it and its
   contents survive crashes.  Trace events for the region use negative block
   ids, keeping it visibly disjoint from the data device's id space. *)

type 's t = {
  stats : Stats.t;
  trace : Trace.t;
  block : int;
  disks : int;
  mutable slot : 's option;
  mutable slot_words : int;
  mutable saves : int;
  mutable loads : int;
  mutable save_ios : int;
  mutable load_ios : int;
}

let create ctx =
  {
    stats = ctx.Ctx.stats;
    trace = ctx.Ctx.trace;
    block = Ctx.block_size ctx;
    disks = Ctx.disks ctx;
    slot = None;
    slot_words = 0;
    saves = 0;
    loads = 0;
    save_ios = 0;
    load_ios = 0;
  }

let blocks_of_words t words = max 1 ((max 0 words + t.block - 1) / t.block)

let charge t (op : Trace.op) ~label n =
  let s = t.stats in
  Stats.push_phase s label;
  for i = 0 to n - 1 do
    (* Block i of the region stripes to disk i mod D, as a data slot would. *)
    Stats.charge s ~write:(op = Trace.Write) ~disk:(i mod t.disks);
    (* The checkpoint region lives at negative "addresses". *)
    Trace.emit t.trace op ~block:(-1 - i) ~phase:s.Stats.phase_stack
  done;
  Stats.pop_phase s

let save t ~words state =
  let n = blocks_of_words t words in
  charge t Trace.Write ~label:"checkpoint" n;
  t.slot <- Some state;
  t.slot_words <- words;
  t.saves <- t.saves + 1;
  t.save_ios <- t.save_ios + n

let install t ~words state =
  t.slot <- Some state;
  t.slot_words <- words

let load t =
  match t.slot with
  | None -> None
  | Some state ->
      let n = blocks_of_words t t.slot_words in
      charge t Trace.Read ~label:"resume" n;
      t.loads <- t.loads + 1;
      t.load_ios <- t.load_ios + n;
      Some state

let saves t = t.saves
let loads t = t.loads
let save_ios t = t.save_ios
let load_ios t = t.load_ios
