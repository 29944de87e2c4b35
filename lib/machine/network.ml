type t = {
  costs : Costs.t;
  width : int;
  nprocs : int;
  link : float array;
}

let hops_on ~width ~src ~dst =
  let x1 = src mod width and y1 = src / width in
  let x2 = dst mod width and y2 = dst / width in
  abs (x1 - x2) + abs (y1 - y2)

let create ~costs ~nprocs =
  if nprocs <= 0 then invalid_arg "Network.create: nprocs must be positive";
  let width = int_of_float (ceil (sqrt (float_of_int nprocs))) in
  let link =
    Array.init (nprocs * nprocs) (fun key ->
        let src = key / nprocs and dst = key mod nprocs in
        if src = dst then 0.
        else
          costs.Costs.message_latency
          +. (float_of_int (hops_on ~width ~src ~dst) *. costs.Costs.per_hop))
  in
  { costs; width; nprocs; link }

let hops t ~src ~dst = hops_on ~width:t.width ~src ~dst

let transfer_time t ~src ~dst ~bytes =
  if src = dst then 0.
  else t.link.((src * t.nprocs) + dst) +. (float_of_int bytes *. t.costs.Costs.byte_transfer)
