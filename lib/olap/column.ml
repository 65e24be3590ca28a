open Chipsim

type t =
  | Ints of { data : int array; sim : Simmem.region }
  | Floats of { data : float array; sim : Simmem.region }

let ints ~alloc data =
  Ints { data; sim = alloc ~elt_bytes:8 ~count:(max 1 (Array.length data)) }

let floats ~alloc data =
  Floats { data; sim = alloc ~elt_bytes:8 ~count:(max 1 (Array.length data)) }

let with_region ~alloc = function
  | Ints { data; sim } ->
      Ints { data; sim = alloc ~elt_bytes:sim.Simmem.elt_bytes ~count:(max 1 (Array.length data)) }
  | Floats { data; sim } ->
      Floats { data; sim = alloc ~elt_bytes:sim.Simmem.elt_bytes ~count:(max 1 (Array.length data)) }

let length = function
  | Ints { data; _ } -> Array.length data
  | Floats { data; _ } -> Array.length data

let get_int = function
  | Ints { data; _ } -> Array.get data
  | Floats _ -> invalid_arg "Column.get_int: float column"

let sim = function Ints { sim; _ } -> sim | Floats { sim; _ } -> sim

let scan_range ctx col ~lo ~hi =
  if hi > lo then Engine.Sched.Ctx.read_range ctx (sim col) ~lo ~hi

let touch ctx col i = Engine.Sched.Ctx.read ctx (sim col) i
