(** Instruction latency/throughput model.

    The bottom half of the paper's Table 1 gives latencies for the
    FlexVec extensions; the AVX-512 base instructions "use latencies and
    throughputs similar to those reported in Fog's instruction tables"
    (§5). We encode a Haswell/Skylake-class subset of Fog's numbers for
    the micro-op classes our traces contain. [recip_tput] is the
    reciprocal throughput in cycles (issue-port occupancy per op). *)

type uop_class =
  | Int_alu          (** scalar integer add/sub/logic/compare *)
  | Int_mul
  | Fp_alu           (** scalar FP add/sub/compare *)
  | Fp_mul
  | Fp_div
  | Load             (** scalar load; latency added on top of cache access *)
  | Store
  | Branch
  | Vec_alu          (** vector int/fp add/sub/logic/compare, blends *)
  | Vec_mul
  | Vec_div
  | Mask_op          (** KAND/KOR/KNOT/KTEST/KMOV *)
  | Vec_broadcast
  | Gather           (** VPGATHER base cost; per-element load uops modelled separately *)
  | Scatter
  | Kftm             (** KFTM.EXC / KFTM.INC — Table 1: 2 cycles, tput 1 *)
  | Slct_last        (** VPSLCTLAST — Table 1: 3 cycles, tput 1 *)
  | Conflictm        (** VPCONFLICTM — Table 1: 20 cycles, tput 2 *)
  | Gather_ff        (** VPGATHERFF — Table 1: 1-cycle AGU, 2 loads/cycle *)
  | Load_ff          (** VMOVFF — same AGU/port model as Gather_ff *)
  | Xbegin           (** RTM region entry *)
  | Xend             (** RTM region commit *)
  | Xabort           (** RTM rollback: discard tentative state, redirect *)
  | Nop
[@@deriving show { with_path = false }, eq]

type timing = { latency : int; recip_tput : int }

(** Execution latency (cycles from issue to result ready) and reciprocal
    throughput for each micro-op class. Memory classes report only the
    non-cache part; the pipeline adds the cache-hierarchy access time. *)
let timing : uop_class -> timing = function
  | Int_alu -> { latency = 1; recip_tput = 1 }
  | Int_mul -> { latency = 3; recip_tput = 1 }
  | Fp_alu -> { latency = 3; recip_tput = 1 }
  | Fp_mul -> { latency = 5; recip_tput = 1 }
  | Fp_div -> { latency = 14; recip_tput = 8 }
  | Load -> { latency = 1; recip_tput = 1 } (* AGU; + cache *)
  | Store -> { latency = 1; recip_tput = 1 }
  | Branch -> { latency = 1; recip_tput = 1 }
  | Vec_alu -> { latency = 1; recip_tput = 1 }
  | Vec_mul -> { latency = 5; recip_tput = 1 }
  | Vec_div -> { latency = 18; recip_tput = 10 }
  | Mask_op -> { latency = 1; recip_tput = 1 }
  | Vec_broadcast -> { latency = 3; recip_tput = 1 }
  | Gather -> { latency = 1; recip_tput = 1 } (* + per-element loads *)
  | Scatter -> { latency = 1; recip_tput = 1 }
  | Kftm -> { latency = 2; recip_tput = 1 }
  | Slct_last -> { latency = 3; recip_tput = 1 }
  | Conflictm -> { latency = 20; recip_tput = 2 }
  | Gather_ff -> { latency = 1; recip_tput = 1 }
  | Load_ff -> { latency = 1; recip_tput = 1 }
  | Xbegin -> { latency = 40; recip_tput = 40 }
  | Xend -> { latency = 30; recip_tput = 30 }
  | Xabort -> { latency = 150; recip_tput = 150 }
  | Nop -> { latency = 1; recip_tput = 1 }

let latency c = (timing c).latency
let recip_tput c = (timing c).recip_tput

(** Stable dense byte codes for the classes, in declaration order —
    the trace sink ({!Fv_trace.Sink}) stores one code byte per micro-op,
    and the replay loop indexes the sink's per-code latency, throughput,
    port-class and branch tables with it. [of_code] is the left inverse
    of [code]. *)
let code : uop_class -> int = function
  | Int_alu -> 0
  | Int_mul -> 1
  | Fp_alu -> 2
  | Fp_mul -> 3
  | Fp_div -> 4
  | Load -> 5
  | Store -> 6
  | Branch -> 7
  | Vec_alu -> 8
  | Vec_mul -> 9
  | Vec_div -> 10
  | Mask_op -> 11
  | Vec_broadcast -> 12
  | Gather -> 13
  | Scatter -> 14
  | Kftm -> 15
  | Slct_last -> 16
  | Conflictm -> 17
  | Gather_ff -> 18
  | Load_ff -> 19
  | Xbegin -> 20
  | Xend -> 21
  | Xabort -> 22
  | Nop -> 23

let ncodes = 24

let of_code : int -> uop_class = function
  | 0 -> Int_alu
  | 1 -> Int_mul
  | 2 -> Fp_alu
  | 3 -> Fp_mul
  | 4 -> Fp_div
  | 5 -> Load
  | 6 -> Store
  | 7 -> Branch
  | 8 -> Vec_alu
  | 9 -> Vec_mul
  | 10 -> Vec_div
  | 11 -> Mask_op
  | 12 -> Vec_broadcast
  | 13 -> Gather
  | 14 -> Scatter
  | 15 -> Kftm
  | 16 -> Slct_last
  | 17 -> Conflictm
  | 18 -> Gather_ff
  | 19 -> Load_ff
  | 20 -> Xbegin
  | 21 -> Xend
  | 22 -> Xabort
  | 23 -> Nop
  | c -> invalid_arg (Printf.sprintf "Latency.of_code: %d" c)

let is_load = function
  | Load | Gather | Gather_ff | Load_ff -> true
  | _ -> false

let is_store = function Store | Scatter -> true | _ -> false
let is_mem c = is_load c || is_store c
let is_branch = function Branch -> true | _ -> false

(** Rows of the paper's Table 1 (FlexVec instructions), for the bench
    harness's "table1" section. *)
let table1_flexvec_rows =
  [ ("KFTMINC/KFTMEXC", Kftm);
    ("VPSLCTLAST", Slct_last);
    ("VPGATHERFF and VMOVFF", Gather_ff);
    ("VPCONFLICTM", Conflictm) ]
