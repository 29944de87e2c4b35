type t = { costs : Costs.t; width : int }

let create ~costs ~nprocs =
  if nprocs <= 0 then invalid_arg "Network.create: nprocs must be positive";
  let width = int_of_float (ceil (sqrt (float_of_int nprocs))) in
  { costs; width }

let hops t ~src ~dst =
  let x1 = src mod t.width and y1 = src / t.width in
  let x2 = dst mod t.width and y2 = dst / t.width in
  abs (x1 - x2) + abs (y1 - y2)

let transfer_time t ~src ~dst ~bytes =
  if src = dst then 0.
  else
    let c = t.costs in
    c.Costs.message_latency
    +. (float_of_int (hops t ~src ~dst) *. c.Costs.per_hop)
    +. (float_of_int bytes *. c.Costs.byte_transfer)
