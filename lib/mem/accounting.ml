type t = { mutable current : int; mutable peak : int }

let create () = { current = 0; peak = 0 }

let add t bytes =
  assert (bytes >= 0);
  t.current <- t.current + bytes;
  if t.current > t.peak then t.peak <- t.current

let sub t bytes =
  assert (bytes >= 0);
  t.current <- Int.max 0 (t.current - bytes)

let current t = t.current

let peak t = t.peak

let reset_peak t = t.peak <- t.current

let reset t =
  t.current <- 0;
  t.peak <- 0
