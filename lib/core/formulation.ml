(** The heterogeneous partitioning-and-mapping ILP (paper Section IV).

    One instance parallelizes one hierarchical AHTG node: it maps child
    nodes to newly created tasks (Eq. 1-2), picks one previously computed
    parallel solution candidate per child (Eq. 3-4), tracks predecessor
    relations induced by dependence edges (Eq. 5-7), accumulates task and
    critical-path costs with task-creation and communication overhead
    (Eq. 8-9), keeps the task graph cycle-free via topologically ordered
    task ids (Eq. 10), minimizes the completion time of the main task that
    owns the Communication-In/Out nodes (Eq. 11), and couples everything
    with a task-to-processor-class mapping under per-class unit budgets
    (Eq. 12-18).

    Deviations from the paper's notation, all behaviour-preserving:
    - the Communication-In/Out nodes are pinned to task 0 (the main task),
      whose class is the sweep's [seqPC]; the objective is task 0's path;
    - products like [x AND p] in Eq. 8/14 are linearized with one big-M
      constraint per (n,t[,c]) instead of one auxiliary variable per
      product — fewer variables, same polytope on the integer points;
    - Eq. 10 is imposed on consecutive children of the fixed topological
      order, which implies it for all pairs by transitivity;
    - tasks carry a [used] indicator so that empty tasks consume neither
      time (Eq. 8) nor processing units (Eq. 13/16). *)

open Ilp

type input = {
  node : Htg.Node.t;
  child_sets : Solution.set array;
  pf : Platform.Desc.t;
  seq_class : int;  (** class of the main task for this sweep iteration *)
  budget : int;  (** upper bound on allocatable processing units *)
  cfg : Config.t;
}

type edge_info = {
  e_src : int;  (** child index; -1 for Comm-In *)
  e_dst : int;  (** child index; -2 for Comm-Out *)
  e_cost_us : float;  (** full transfer cost if the edge is cut *)
  e_is_flow : bool;
}

let comm_in = -1
let comm_out = -2

let edge_infos (inp : input) : edge_info list =
  let node = inp.node in
  let comm = inp.pf.Platform.Desc.comm in
  let ntrans src dst =
    match (src, dst) with
    | Htg.Node.EChild i, Htg.Node.EChild j ->
        Float.min node.Htg.Node.children.(i).Htg.Node.exec_count
          node.Htg.Node.children.(j).Htg.Node.exec_count
    | _ -> node.Htg.Node.exec_count
  in
  List.filter_map
    (fun (e : Htg.Node.edge) ->
      let src =
        match e.Htg.Node.src with
        | Htg.Node.EChild i -> i
        | Htg.Node.EIn -> comm_in
        | Htg.Node.EOut -> comm_out
      in
      let dst =
        match e.Htg.Node.dst with
        | Htg.Node.EChild i -> i
        | Htg.Node.EOut -> comm_out
        | Htg.Node.EIn -> comm_in
      in
      if src = dst then None
      else
        let cost =
          match e.Htg.Node.kind with
          | Htg.Node.Flow ->
              (comm.Platform.Comm.startup_us *. ntrans e.Htg.Node.src e.Htg.Node.dst)
              +. (float_of_int e.Htg.Node.bytes *. comm.Platform.Comm.per_byte_us)
          | Htg.Node.Order -> 0.
        in
        Some
          {
            e_src = src;
            e_dst = dst;
            e_cost_us = cost;
            e_is_flow = (match e.Htg.Node.kind with Htg.Node.Flow -> true | _ -> false);
          })
    node.Htg.Node.edges

(** Variable ids of one instance, for extraction and warm starts. *)
type vars = {
  x : Model.var array array;  (** x.(n).(t) *)
  p : Model.var array array array;  (** p.(n).(c).(s) *)
  pred : Model.var array array;  (** pred.(t).(u), only t<u valid *)
  map_tc : Model.var array array;  (** map.(t).(c) *)
  used : Model.var array;
  cost : Model.var array;
  contrib : Model.var array array;  (** contrib.(n).(t) *)
  accum : Model.var array;
  commcost : Model.var array;
  procsused : Model.var array array;  (** procsused.(t).(c) *)
  cut : (int * Model.var array) list;  (** edge idx in flow list -> per task *)
  exectime : Model.var;
}

type instance = {
  model : Model.t;
  vars : vars;
  ntasks : int;
  cands : Solution.t array array array;  (** cands.(n).(c) = candidates *)
  flow_edges : edge_info array;
  all_edges : edge_info list;
  header_us : float;
  tco_total : float;
}

let build (inp : input) : instance option =
  let node = inp.node in
  let pf = inp.pf in
  let cfg = inp.cfg in
  let k = Array.length node.Htg.Node.children in
  let nclasses = Platform.Desc.num_classes pf in
  let total_units = Platform.Desc.total_units pf in
  let ntasks = min (min inp.budget k) total_units in
  if ntasks < 2 || k < 2 then None
  else begin
    let cands =
      Array.map
        (fun set -> Array.map Array.of_list set)
        inp.child_sets
    in
    let m = Model.create ~name:(Printf.sprintf "par-node-%d" node.Htg.Node.id) () in
    let open Lin_expr in
    (* ---- decision variables ---- *)
    let x =
      Array.init k (fun n ->
          Array.init ntasks (fun t ->
              Model.bool_var ~priority:30 m (Printf.sprintf "x_%d_%d" n t)))
    in
    let p =
      Array.init k (fun n ->
          Array.init nclasses (fun c ->
              Array.init
                (Array.length cands.(n).(c))
                (fun s -> Model.bool_var ~priority:10 m (Printf.sprintf "p_%d_%d_%d" n c s))))
    in
    let pred =
      Array.init ntasks (fun t ->
          Array.init ntasks (fun u ->
              if t < u then Model.bool_var m (Printf.sprintf "pred_%d_%d" t u)
              else -1))
    in
    let map_tc =
      Array.init ntasks (fun t ->
          Array.init nclasses (fun c ->
              Model.bool_var ~priority:20 m (Printf.sprintf "map_%d_%d" t c)))
    in
    let used =
      Array.init ntasks (fun t -> Model.bool_var ~priority:20 m (Printf.sprintf "used_%d" t))
    in
    let cost =
      Array.init ntasks (fun t -> Model.cont_var m (Printf.sprintf "cost_%d" t))
    in
    let contrib =
      Array.init k (fun n ->
          Array.init ntasks (fun t ->
              Model.cont_var m (Printf.sprintf "ctr_%d_%d" n t)))
    in
    let accum =
      Array.init ntasks (fun t -> Model.cont_var m (Printf.sprintf "acc_%d" t))
    in
    let commcost =
      Array.init ntasks (fun t -> Model.cont_var m (Printf.sprintf "comm_%d" t))
    in
    let procsused =
      Array.init ntasks (fun t ->
          Array.init nclasses (fun c ->
              Model.cont_var m (Printf.sprintf "pu_%d_%d" t c)))
    in
    let exectime = Model.cont_var m "exectime" in
    let all_edges = edge_infos inp in
    let flow_edges =
      Array.of_list
        (List.filter
           (fun e -> e.e_is_flow && e.e_cost_us > 0. && e.e_src >= 0 && e.e_dst >= 0)
           all_edges)
    in
    let cut =
      List.init (Array.length flow_edges) (fun ei ->
          ( ei,
            Array.init ntasks (fun t ->
                Model.bool_var m (Printf.sprintf "cut_%d_%d" ei t)) ))
    in
    (* ---- constants ---- *)
    let costs n c s = cands.(n).(c).(s).Solution.time_us in
    let max_cost n =
      let mx = ref 0. in
      Array.iteri
        (fun c arr ->
          Array.iteri (fun s _ -> mx := Float.max !mx (costs n c s)) arr)
        cands.(n);
      !mx
    in
    let ec = node.Htg.Node.exec_count in
    let tco_total = ec *. pf.Platform.Desc.tco_us in
    let header_cycles =
      Float.max 0.
        (node.Htg.Node.total_cycles
        -. Array.fold_left
             (fun acc c -> acc +. c.Htg.Node.total_cycles)
             0. node.Htg.Node.children)
    in
    let header_us = Platform.Desc.time_us pf ~cls:inp.seq_class header_cycles in
    let sum_comm =
      List.fold_left (fun acc e -> acc +. e.e_cost_us) 0. all_edges
    in
    let big_m =
      Array.fold_left ( +. )
        (header_us +. (float_of_int ntasks *. tco_total) +. sum_comm +. 1.)
        (Array.init k max_cost |> Array.map (fun x -> x))
    in
    (* ---- Eq 2: each child in exactly one task ---- *)
    for n = 0 to k - 1 do
      Model.eq ~name:(Printf.sprintf "eq2_n%d" n) m
        (sum (List.init ntasks (fun t -> term x.(n).(t))))
        (constant 1.)
    done;
    (* ---- Eq 4: exactly one candidate per child ---- *)
    for n = 0 to k - 1 do
      let terms = ref [] in
      Array.iter
        (fun arr -> Array.iter (fun v -> terms := term v :: !terms) arr)
        p.(n);
      Model.eq ~name:(Printf.sprintf "eq4_n%d" n) m (sum !terms) (constant 1.)
    done;
    (* ---- used task indicators ---- *)
    for t = 0 to ntasks - 1 do
      for n = 0 to k - 1 do
        Model.ge
          ~name:(Printf.sprintf "used_t%d_n%d" t n)
          m (term used.(t)) (term x.(n).(t))
      done
    done;
    (* task 0 is the main task: always used *)
    Model.eq ~name:"main_used" m (term used.(0)) (constant 1.);
    (* ---- Eq 5/6: predecessor relations from dependence edges ---- *)
    List.iter
      (fun e ->
        if e.e_src >= 0 && e.e_dst >= 0 then
          for t = 0 to ntasks - 1 do
            for u = t + 1 to ntasks - 1 do
              Model.ge
                ~name:(Printf.sprintf "eq6_e%d%d_t%d_u%d" e.e_src e.e_dst t u)
                m
                (term pred.(t).(u))
                (add_const (-1.) (add (term x.(e.e_src).(t)) (term x.(e.e_dst).(u))))
            done
          done
        else if e.e_src = comm_in && e.e_dst >= 0 then
          (* Comm-In lives in task 0: data flows 0 -> task of dst *)
          for u = 1 to ntasks - 1 do
            Model.ge
              ~name:(Printf.sprintf "eq6_in_%d_u%d" e.e_dst u)
              m
              (term pred.(0).(u))
              (term x.(e.e_dst).(u))
          done)
      all_edges;
    (* ---- Eq 10: cycle-freedom / symmetry breaking on consecutive
       children of the topological order ---- *)
    let taskid n = sum (List.init ntasks (fun t -> term ~coef:(float_of_int t) x.(n).(t))) in
    for n = 0 to k - 2 do
      Model.ge ~name:(Printf.sprintf "eq10_%d" n) m (taskid (n + 1)) (taskid n)
    done;
    (* ---- lexicographic symmetry breaking ([Config.ilp_symmetry]) ----
       Eq 10 orders task ids along the children but still admits gaps and
       used-but-empty tasks; any such solution has an equivalent compact
       relabeling of identical cost.  Two families of rows pick the
       compact representative and complete the task-label
       canonicalization:
       - contiguity: the used non-main tasks form a prefix;
       - no empty used tasks: a task marked used must hold a child
         (task 0 is exempt — the main task is always used). *)
    if cfg.Config.ilp_symmetry then begin
      for t = 1 to ntasks - 2 do
        Model.ge
          ~name:(Printf.sprintf "sym_contig_%d" t)
          m (term used.(t))
          (term used.(t + 1))
      done;
      for t = 1 to ntasks - 1 do
        Model.le
          ~name:(Printf.sprintf "sym_nonempty_%d" t)
          m (term used.(t))
          (sum (List.init k (fun n -> term x.(n).(t))))
      done;
      (* per-class lex order for provably interchangeable classes: two
         non-main classes whose unit counts match and whose candidate
         sets are identical under swapping the pair's roles describe the
         same hardware twice; prefer the lower index.  The test is
         deliberately conservative — heterogeneous platforms (distinct
         candidate times) never trigger it, so adding the rows cannot
         perturb their search. *)
      let units = Platform.Desc.units_per_class inp.pf in
      let swap c c' i = if i = c then c' else if i = c' then c else i in
      let cand_swap_eq c c' (a : Solution.t) (b : Solution.t) =
        a.Solution.time_us = b.Solution.time_us
        && Array.length a.Solution.extra_units
           = Array.length b.Solution.extra_units
        && Array.for_all Fun.id
             (Array.mapi
                (fun i u -> u = b.Solution.extra_units.(swap c c' i))
                a.Solution.extra_units)
      in
      let interchangeable c c' =
        c <> inp.seq_class && c' <> inp.seq_class
        && units.(c) = units.(c')
        && Array.for_all
             (fun per_child ->
               Array.length per_child.(c) = Array.length per_child.(c')
               && Array.for_all Fun.id
                    (Array.mapi
                       (fun s a -> cand_swap_eq c c' a per_child.(c').(s))
                       per_child.(c)))
             cands
      in
      for c = 0 to nclasses - 2 do
        if interchangeable c (c + 1) then
          Model.ge
            ~name:(Printf.sprintf "sym_class_%d_%d" c (c + 1))
            m
            (sum (List.init ntasks (fun t -> term map_tc.(t).(c))))
            (sum (List.init ntasks (fun t -> term map_tc.(t).(c + 1))))
      done
    end;
    (* ---- conflicts: loop-carried recurrences stay in one task ---- *)
    List.iter
      (fun (a, b) ->
        for t = 0 to ntasks - 1 do
          Model.eq
            ~name:(Printf.sprintf "conflict_%d_%d_t%d" a b t)
            m (term x.(a).(t)) (term x.(b).(t))
        done)
      node.Htg.Node.conflicts;
    (* ---- Eq 8: task costs ---- *)
    for n = 0 to k - 1 do
      let pick_cost =
        let terms = ref [] in
        Array.iteri
          (fun c arr ->
            Array.iteri
              (fun s v -> terms := term ~coef:(costs n c s) v :: !terms)
              arr)
          p.(n);
        sum !terms
      in
      for t = 0 to ntasks - 1 do
        (* contrib(n,t) >= sum_cs COSTS*p - M*(1 - x(n,t)) *)
        Model.ge
          ~name:(Printf.sprintf "eq8ctr_n%d_t%d" n t)
          m
          (term contrib.(n).(t))
          (add_const (-.max_cost n)
             (add pick_cost (term ~coef:(max_cost n) x.(n).(t))))
      done;
      (* work conservation: tightens the LP relaxation considerably (for
         integer points it is implied by the big-M constraints above) *)
      Model.ge
        ~name:(Printf.sprintf "eq8cons_n%d" n)
        m
        (sum (List.init ntasks (fun t -> term contrib.(n).(t))))
        pick_cost
    done;
    for t = 0 to ntasks - 1 do
      let base =
        if t = 0 then add_const header_us (term ~coef:tco_total used.(t))
        else term ~coef:tco_total used.(t)
      in
      Model.ge
        ~name:(Printf.sprintf "eq8_t%d" t)
        m (term cost.(t))
        (add base (sum (List.init k (fun n -> term contrib.(n).(t)))))
    done;
    (* ---- communication costs charged to the producing task ---- *)
    List.iteri
      (fun ei (_, cvars) ->
        let e = flow_edges.(ei) in
        for t = 0 to ntasks - 1 do
          (* cut(e,t) >= x(src,t) - x(dst,t) *)
          Model.ge
            ~name:(Printf.sprintf "cut_e%d_t%d" ei t)
            m (term cvars.(t))
            (sub (term x.(e.e_src).(t)) (term x.(e.e_dst).(t)))
        done)
      cut;
    for t = 0 to ntasks - 1 do
      let cut_terms =
        List.map
          (fun (ei, cvars) -> term ~coef:flow_edges.(ei).e_cost_us cvars.(t))
          cut
      in
      let in_terms =
        if t = 0 then
          (* Comm-In transfers to children outside task 0 are charged to
             task 0 (the producer of the inputs) *)
          List.filter_map
            (fun e ->
              if e.e_src = comm_in && e.e_dst >= 0 && e.e_cost_us > 0. then
                Some (add_const e.e_cost_us (term ~coef:(-.e.e_cost_us) x.(e.e_dst).(0)))
              else None)
            all_edges
        else []
      in
      Model.ge
        ~name:(Printf.sprintf "commdef_t%d" t)
        m (term commcost.(t))
        (sum (cut_terms @ in_terms))
    done;
    (* ---- Eq 9: critical path ---- *)
    for t = 0 to ntasks - 1 do
      Model.ge ~name:(Printf.sprintf "eq9base_t%d" t) m (term accum.(t)) (term cost.(t));
      for u = t + 1 to ntasks - 1 do
        (* accum(u) >= cost(u) + accum(t) + commcost(t) - M(1 - pred(t,u)) *)
        Model.ge
          ~name:(Printf.sprintf "eq9_t%d_u%d" t u)
          m (term accum.(u))
          (add_const (-.big_m)
             (sum
                [
                  term cost.(u);
                  term accum.(t);
                  term commcost.(t);
                  term ~coef:big_m pred.(t).(u);
                ]))
      done
    done;
    (* ---- Eq 11: objective = completion of the main task's join ---- *)
    for t = 0 to ntasks - 1 do
      let out_terms =
        if t = 0 then []
        else
          List.filter_map
            (fun e ->
              if e.e_dst = comm_out && e.e_src >= 0 && e.e_cost_us > 0. then
                Some (term ~coef:e.e_cost_us x.(e.e_src).(t))
              else None)
            all_edges
      in
      Model.ge
        ~name:(Printf.sprintf "eq11_t%d" t)
        m (term exectime)
        (sum (term accum.(t) :: term commcost.(t) :: out_terms))
    done;
    (* the shared bus is a serial resource: no schedule can finish before
       all inter-task traffic has been carried *)
    Model.ge ~name:"bus_bound" m (term exectime)
      (sum (List.init ntasks (fun t -> term commcost.(t))));
    Model.set_objective m Model.Minimize (term exectime);
    (* ---- Eq 12/13: task-to-class mapping ---- *)
    for t = 0 to ntasks - 1 do
      Model.eq
        ~name:(Printf.sprintf "eq13_t%d" t)
        m
        (sum (List.init nclasses (fun c -> term map_tc.(t).(c))))
        (term used.(t))
    done;
    (* pin the main task to seqPC *)
    Model.eq ~name:"pin_main" m (term map_tc.(0).(inp.seq_class)) (constant 1.);
    (* ---- Eq 14: processing units consumed by inner solutions ---- *)
    for t = 0 to ntasks - 1 do
      for c = 0 to nclasses - 1 do
        for n = 0 to k - 1 do
          let used_terms = ref [] in
          let maxu = ref 0. in
          Array.iteri
            (fun c' arr ->
              Array.iteri
                (fun s v ->
                  let u =
                    float_of_int cands.(n).(c').(s).Solution.extra_units.(c)
                  in
                  maxu := Float.max !maxu u;
                  if u > 0. then used_terms := term ~coef:u v :: !used_terms)
                arr)
            p.(n);
          if !maxu > 0. then
            Model.ge
              ~name:(Printf.sprintf "eq14_t%d_c%d_n%d" t c n)
              m
              (term procsused.(t).(c))
              (add_const (-. !maxu)
                 (add (sum !used_terms) (term ~coef:(!maxu) x.(n).(t))))
        done
      done
    done;
    (* valid inequality tightening the relaxation: whichever task child n
       lands in, that task's inner usage of class c is at least the usage
       of n's chosen candidate, so the global sum is too.  For integer
       points this is implied by Eq 14; fractionally it stops the LP from
       both spreading children over many tasks and picking inner-parallel
       candidates beyond the unit budget. *)
    for n = 0 to k - 1 do
      for c = 0 to nclasses - 1 do
        let used_terms = ref [] in
        let any = ref false in
        Array.iteri
          (fun c' arr ->
            Array.iteri
              (fun s v ->
                let u = float_of_int cands.(n).(c').(s).Solution.extra_units.(c) in
                if u > 0. then begin
                  any := true;
                  used_terms := term ~coef:u v :: !used_terms
                end)
              arr)
          p.(n);
        if !any then
          Model.ge
            ~name:(Printf.sprintf "capcut_n%d_c%d" n c)
            m
            (sum (List.init ntasks (fun t -> term procsused.(t).(c))))
            (sum !used_terms)
      done
    done;
    (* ---- Eq 15/16: per-class unit budget ---- *)
    for c = 0 to nclasses - 1 do
      Model.le
        ~name:(Printf.sprintf "eq16_c%d" c)
        m
        (sum
           (List.init ntasks (fun t -> term map_tc.(t).(c))
           @ List.init ntasks (fun t -> term procsused.(t).(c))))
        (constant (float_of_int (Platform.Desc.units_per_class pf).(c)))
    done;
    (* global budget from the sweep *)
    let all_units =
      sum
        (List.concat
           (List.init ntasks (fun t ->
                List.init nclasses (fun c ->
                    add (term map_tc.(t).(c)) (term procsused.(t).(c))))))
    in
    Model.le ~name:"budget" m all_units (constant (float_of_int inp.budget));
    (* ---- Eq 17/18: candidate class must match the task's class ---- *)
    for n = 0 to k - 1 do
      for t = 0 to ntasks - 1 do
        for c = 0 to nclasses - 1 do
          let p_sum = sum (Array.to_list (Array.map term p.(n).(c))) in
          (* x(n,t) & map(t,c) => candidate of class c chosen *)
          Model.ge
            ~name:(Printf.sprintf "eq18a_n%d_t%d_c%d" n t c)
            m p_sum
            (add_const (-1.) (add (term x.(n).(t)) (term map_tc.(t).(c))));
          (* x(n,t) & candidate of class c => task t on class c *)
          Model.ge
            ~name:(Printf.sprintf "eq18b_n%d_t%d_c%d" n t c)
            m
            (term map_tc.(t).(c))
            (add_const (-1.) (add (term x.(n).(t)) p_sum))
        done
      done
    done;
    Some
      {
        model = m;
        vars =
          {
            x;
            p;
            pred;
            map_tc;
            used;
            cost;
            contrib;
            accum;
            commcost;
            procsused;
            cut;
            exectime;
          };
        ntasks;
        cands;
        flow_edges;
        all_edges;
        header_us;
        tco_total;
      }
  end

(* ------------------------------------------------------------------ *)
(* Warm start: everything sequential in the main task                  *)
(* ------------------------------------------------------------------ *)

(** All children in the main task on [seqPC]; each child greedily takes
    its fastest candidate of that class whose inner processor usage fits
    the per-class and global budgets (usage is shared across sequential
    children, Eq. 14's max semantics).  Falls back to the sequential
    candidate per child, so it is always feasible — this seeds branch &
    bound with a strong incumbent. *)
let hierarchical_warm_start (inp : input) (inst : instance) : float array =
  let k = Array.length inp.node.Htg.Node.children in
  let nclasses = Platform.Desc.num_classes inp.pf in
  let units = Platform.Desc.units_per_class inp.pf in
  let w = Array.make (Model.num_vars inst.model) 0. in
  let v = inst.vars in
  let set var value = w.(var) <- value in
  let cur_max = Array.make nclasses 0 in
  let fits (cand : Solution.t) =
    let new_max =
      Array.init nclasses (fun c -> max cur_max.(c) cand.Solution.extra_units.(c))
    in
    let per_class_ok = ref true in
    Array.iteri
      (fun c m ->
        let need = m + if c = inp.seq_class then 1 else 0 in
        if need > units.(c) then per_class_ok := false)
      new_max;
    let total = 1 + Array.fold_left ( + ) 0 new_max in
    if !per_class_ok && total <= inp.budget then Some new_max else None
  in
  let total = ref (inst.header_us +. inst.tco_total) in
  for n = 0 to k - 1 do
    set v.x.(n).(0) 1.;
    let arr = inst.cands.(n).(inp.seq_class) in
    (* fastest fitting candidate; the sequential one always fits *)
    let best = ref (-1) in
    let best_max = ref cur_max in
    Array.iteri
      (fun s cand ->
        match fits cand with
        | Some new_max ->
            if !best < 0 || cand.Solution.time_us < arr.(!best).Solution.time_us
            then begin
              best := s;
              best_max := new_max
            end
        | None -> ())
      arr;
    let s =
      if !best >= 0 then !best
      else begin
        (* defensive: locate the sequential candidate *)
        let rec go i =
          if i >= Array.length arr then 0
          else if Solution.is_sequential arr.(i) then i
          else go (i + 1)
        in
        go 0
      end
    in
    if !best >= 0 then Array.blit !best_max 0 cur_max 0 nclasses;
    set v.p.(n).(inp.seq_class).(s) 1.;
    let cost_n = arr.(s).Solution.time_us in
    set v.contrib.(n).(0) cost_n;
    total := !total +. cost_n
  done;
  for c = 0 to nclasses - 1 do
    set v.procsused.(0).(c) (float_of_int cur_max.(c))
  done;
  set v.used.(0) 1.;
  set v.map_tc.(0).(inp.seq_class) 1.;
  set v.cost.(0) !total;
  set v.accum.(0) !total;
  set v.exectime !total;
  w

(* ------------------------------------------------------------------ *)
(* Schedule to model point                                             *)
(* ------------------------------------------------------------------ *)

(** Evaluate the full model point implied by a parallel schedule [pk]:
    discrete variables come straight from the schedule's assignment; each
    continuous variable takes the minimal value its rows allow, in task
    order.  The construction is best-effort: a schedule the model rejects
    (e.g. a conflict pair split across chunks, or a candidate not in this
    instance's sets) yields [None] or an infeasible point — callers must
    check [Model.feasible] before trusting the point.  This is the
    schedule-to-model bridge of every heuristic-engine schedule
    ({!Heuristics}). *)
let par_point (inp : input) (inst : instance) (pk : Solution.par) :
    float array option =
      let k = Array.length inp.node.Htg.Node.children in
      let nclasses = Platform.Desc.num_classes inp.pf in
      let v = inst.vars in
      let assignment = pk.Solution.assignment in
      let task_class = pk.Solution.task_class in
      let gtasks = Array.length task_class in
      if
        Array.length assignment <> k
        || gtasks > inst.ntasks
        || Array.exists (fun t -> t < 0 || t >= inst.ntasks) assignment
      then None
      else begin
        let w = Array.make (Model.num_vars inst.model) 0. in
        let set var value = w.(var) <- value in
        let class_of t =
          if t = 0 then inp.seq_class
          else if t < gtasks && task_class.(t) >= 0 then task_class.(t)
          else inp.seq_class
        in
        (* x and p; remember the picked candidate per child *)
        let picked = Array.make k None in
        let ok = ref true in
        for n = 0 to k - 1 do
          let t = assignment.(n) in
          set v.x.(n).(t) 1.;
          let c = class_of t in
          let chosen = pk.Solution.child_choice.(n) in
          let arr = inst.cands.(n).(c) in
          let s = ref (-1) in
          Array.iteri (fun i cand -> if !s < 0 && cand == chosen then s := i) arr;
          if !s < 0 then
            (* structural fallback: the sequential candidate of the class *)
            Array.iteri
              (fun i cand ->
                if !s < 0 && Solution.is_sequential cand then s := i)
              arr;
          match !s with
          | -1 -> ok := false
          | s ->
              set v.p.(n).(c).(s) 1.;
              picked.(n) <- Some arr.(s)
        done;
        if not !ok then None
        else begin
          let pick n =
            match picked.(n) with Some c -> c | None -> assert false
          in
          (* used / map_tc *)
          let used_t = Array.make inst.ntasks false in
          used_t.(0) <- true;
          Array.iter (fun t -> used_t.(t) <- true) assignment;
          for t = 0 to inst.ntasks - 1 do
            if used_t.(t) then begin
              set v.used.(t) 1.;
              set v.map_tc.(t).(class_of t) 1.
            end
          done;
          (* pred: minimal setting — exactly the pairs some edge forces *)
          List.iter
            (fun e ->
              if e.e_src >= 0 && e.e_dst >= 0 then begin
                let t = assignment.(e.e_src) and u = assignment.(e.e_dst) in
                if t < u then set v.pred.(t).(u) 1.
              end
              else if e.e_src = comm_in && e.e_dst >= 0 then begin
                let u = assignment.(e.e_dst) in
                if u > 0 then set v.pred.(0).(u) 1.
              end)
            inst.all_edges;
          (* cut indicators and communication cost per producing task *)
          let comm_t = Array.make inst.ntasks 0. in
          List.iter
            (fun (ei, cvars) ->
              let e = inst.flow_edges.(ei) in
              let ts = assignment.(e.e_src) and td = assignment.(e.e_dst) in
              if ts <> td then begin
                set cvars.(ts) 1.;
                comm_t.(ts) <- comm_t.(ts) +. e.e_cost_us
              end)
            v.cut;
          List.iter
            (fun e ->
              if
                e.e_src = comm_in && e.e_dst >= 0 && e.e_cost_us > 0.
                && assignment.(e.e_dst) <> 0
              then comm_t.(0) <- comm_t.(0) +. e.e_cost_us)
            inst.all_edges;
          for t = 0 to inst.ntasks - 1 do
            set v.commcost.(t) comm_t.(t)
          done;
          (* contrib / cost *)
          let cost_t = Array.make inst.ntasks 0. in
          for n = 0 to k - 1 do
            let cn = (pick n).Solution.time_us in
            set v.contrib.(n).(assignment.(n)) cn;
            cost_t.(assignment.(n)) <- cost_t.(assignment.(n)) +. cn
          done;
          for t = 0 to inst.ntasks - 1 do
            let base =
              (if t = 0 then inst.header_us else 0.)
              +. if used_t.(t) then inst.tco_total else 0.
            in
            cost_t.(t) <- cost_t.(t) +. base;
            set v.cost.(t) cost_t.(t)
          done;
          (* accum in task order (pred pairs only go low -> high) *)
          let accum_t = Array.make inst.ntasks 0. in
          for u = 0 to inst.ntasks - 1 do
            let a = ref cost_t.(u) in
            for t = 0 to u - 1 do
              if t < u && w.(v.pred.(t).(u)) > 0.5 then
                a := Float.max !a (cost_t.(u) +. accum_t.(t) +. comm_t.(t))
            done;
            accum_t.(u) <- !a;
            set v.accum.(u) !a
          done;
          (* inner processor usage: Eq 14 max semantics per task *)
          for t = 0 to inst.ntasks - 1 do
            for c = 0 to nclasses - 1 do
              let mx = ref 0 in
              for n = 0 to k - 1 do
                if assignment.(n) = t then
                  mx := max !mx (pick n).Solution.extra_units.(c)
              done;
              if !mx > 0 then set v.procsused.(t).(c) (float_of_int !mx)
            done
          done;
          (* exectime: Eq 11 over all tasks, plus the bus bound *)
          let ex = ref 0. in
          for t = 0 to inst.ntasks - 1 do
            let out = ref 0. in
            if t > 0 then
              List.iter
                (fun e ->
                  if
                    e.e_dst = comm_out && e.e_src >= 0 && e.e_cost_us > 0.
                    && assignment.(e.e_src) = t
                  then out := !out +. e.e_cost_us)
                inst.all_edges;
            ex := Float.max !ex (accum_t.(t) +. comm_t.(t) +. !out)
          done;
          ex := Float.max !ex (Array.fold_left ( +. ) 0. comm_t);
          set v.exectime !ex;
          Some w
        end
      end

(* ------------------------------------------------------------------ *)
(* Extraction                                                          *)
(* ------------------------------------------------------------------ *)

(** Decode a model point into a candidate (tagged [Exact]; the driver
    retags incumbents and heuristic points). *)
let extract (inp : input) (inst : instance) (sol : float array) : Solution.t =
  let bval var = sol.(var) > 0.5 in
  let k = Array.length inp.node.Htg.Node.children in
  let nclasses = Platform.Desc.num_classes inp.pf in
  let v = inst.vars in
  let assignment =
    Array.init k (fun n ->
        let t = ref 0 in
        for u = 0 to inst.ntasks - 1 do
          if bval v.x.(n).(u) then t := u
        done;
        !t)
  in
  let task_class =
    Array.init inst.ntasks (fun t ->
        if not (bval v.used.(t)) then -1
        else begin
          let cls = ref inp.seq_class in
          for c = 0 to nclasses - 1 do
            if bval v.map_tc.(t).(c) then cls := c
          done;
          !cls
        end)
  in
  let child_choice =
    Array.init k (fun n ->
        let chosen = ref None in
        Array.iteri
          (fun c arr ->
            Array.iteri
              (fun s var -> if bval var then chosen := Some inst.cands.(n).(c).(s))
              arr)
          v.p.(n);
        match !chosen with
        | Some s -> s
        | None -> inst.cands.(n).(inp.seq_class).(0))
  in
  (* extra units: each used non-main task's own unit + per task the
     max inner usage over its children (Eq 14 semantics) *)
  let extra = Array.make nclasses 0 in
  for t = 0 to inst.ntasks - 1 do
    if task_class.(t) >= 0 then begin
      if t > 0 then extra.(task_class.(t)) <- extra.(task_class.(t)) + 1;
      for c = 0 to nclasses - 1 do
        let mx = ref 0 in
        for n = 0 to k - 1 do
          if assignment.(n) = t then
            mx := max !mx child_choice.(n).Solution.extra_units.(c)
        done;
        extra.(c) <- extra.(c) + !mx
      done
    end
  done;
  let time_us = sol.(v.exectime) in
  {
    Solution.node_id = inp.node.Htg.Node.id;
    main_class = inp.seq_class;
    time_us;
    extra_units = extra;
    degrade = Solution.Exact;
    kind =
      Solution.Par
        {
          Solution.assignment;
          task_class;
          child_choice;
          par_time_breakdown = Solution.no_breakdown;
        };
  }
