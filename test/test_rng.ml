(* The PRNG underpins reproducibility of every experiment. *)

let test_determinism () =
  let a = Gpusim.Rng.create 1234 and b = Gpusim.Rng.create 1234 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Gpusim.Rng.int64 a) (Gpusim.Rng.int64 b)
  done

let test_seed_sensitivity () =
  let a = Gpusim.Rng.create 1 and b = Gpusim.Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Gpusim.Rng.int64 a = Gpusim.Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_copy_independent () =
  let a = Gpusim.Rng.create 7 in
  let b = Gpusim.Rng.copy a in
  let va = Gpusim.Rng.int64 a in
  let vb = Gpusim.Rng.int64 b in
  Alcotest.(check int64) "copy resumes at same point" va vb;
  ignore (Gpusim.Rng.int64 a);
  let va2 = Gpusim.Rng.int64 a and vb2 = Gpusim.Rng.int64 b in
  Alcotest.(check bool) "diverge after unequal draws" true (va2 <> vb2)

let test_split_independent () =
  let a = Gpusim.Rng.create 99 in
  let b = Gpusim.Rng.split a in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Gpusim.Rng.int64 a = Gpusim.Rng.int64 b then incr matches
  done;
  Alcotest.(check bool) "split streams differ" true (!matches < 4)

let prop_int_bounds =
  QCheck.Test.make ~name:"int within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
  @@ fun (seed, n) ->
  let t = Gpusim.Rng.create seed in
  let v = Gpusim.Rng.int t n in
  v >= 0 && v < n

let prop_int_in_bounds =
  QCheck.Test.make ~name:"int_in within inclusive bounds" ~count:500
    QCheck.(triple small_int (int_range (-50) 50) (int_range 0 100))
  @@ fun (seed, lo, width) ->
  let hi = lo + width in
  let t = Gpusim.Rng.create seed in
  let v = Gpusim.Rng.int_in t lo hi in
  v >= lo && v <= hi

let prop_float_unit =
  QCheck.Test.make ~name:"float in [0,1)" ~count:500 QCheck.small_int
  @@ fun seed ->
  let t = Gpusim.Rng.create seed in
  let v = Gpusim.Rng.float t in
  v >= 0.0 && v < 1.0

let prop_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (int_range 0 30))
  @@ fun (seed, n) ->
  let t = Gpusim.Rng.create seed in
  let a = Array.init n (fun i -> i) in
  Gpusim.Rng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  sorted = Array.init n (fun i -> i)

let prop_sample_distinct =
  QCheck.Test.make ~name:"sample_distinct: distinct, in range, right size"
    ~count:200
    QCheck.(pair small_int (int_range 0 20))
  @@ fun (seed, n) ->
  let t = Gpusim.Rng.create seed in
  let m = if n = 0 then 0 else Gpusim.Rng.int t (n + 1) in
  let s = Gpusim.Rng.sample_distinct t m n in
  List.length s = m
  && List.sort_uniq compare s = List.sort compare s
  && List.for_all (fun x -> x >= 0 && x < n) s

let test_uniformity () =
  (* Coarse chi-square-free sanity: each bucket of 8 gets 10-40% over 1000
     draws of [Rng.int t 8]. *)
  let t = Gpusim.Rng.create 5 in
  let buckets = Array.make 8 0 in
  for _ = 1 to 1000 do
    let v = Gpusim.Rng.int t 8 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d reasonable (%d)" i c)
        true
        (c > 60 && c < 250))
    buckets

(* Known-answer vectors.  Every experiment's result is a function of this
   stream, so a change to the generator's representation must leave it
   exactly as it is; these values fail first, and name the entry point
   that moved, before any golden ledger diff does. *)

let draws k f = List.init k (fun _ -> f ())

let check_int64s name expected t =
  Alcotest.(check (list int64)) name expected
    (draws (List.length expected) (fun () -> Gpusim.Rng.int64 t))

let test_kat_create_reseed () =
  check_int64s "create 42"
    [ 0x989B3F130A063869L; 0x290DB4BF2570DED7L; 0x2A990BE63A01B2D5L;
      0x0C4B6B24EF01890EL ]
    (Gpusim.Rng.create 42);
  let t = Gpusim.Rng.create 1 in
  ignore (Gpusim.Rng.int64 t);
  Gpusim.Rng.reseed t 7;
  check_int64s "reseed 7"
    [ 0x863B891F4C0ABD4FL; 0x4D58FBD282EAF415L; 0xF0E521070CC03750L ] t

let test_kat_copy_split () =
  let t = Gpusim.Rng.create 5 in
  ignore (Gpusim.Rng.int64 t);
  let c = Gpusim.Rng.copy t in
  let expected = [ 0x894CC326F449758CL; 0xC88783661F974CC8L ] in
  check_int64s "copy" expected c;
  check_int64s "original after copy" expected t;
  let a = Gpusim.Rng.create 99 in
  let s = Gpusim.Rng.split a in
  check_int64s "split child" [ 0xBB2AEC5FC9B77105L; 0x068C7576944910BDL ] s;
  check_int64s "split parent" [ 0x1AA6161B3499D485L; 0xA5CF86344D4186E8L ] a

let test_kat_derived () =
  let t = Gpusim.Rng.create 3 in
  Alcotest.(check (list int)) "bits30"
    [ 875487642; 467173582; 430369950; 885904810 ]
    (draws 4 (fun () -> Gpusim.Rng.bits30 t));
  let t = Gpusim.Rng.create 11 in
  Alcotest.(check (list (float 0.0))) "float"
    [ 0x1.40dd29ef4d84p-5; 0x1.075e99f75d515p-1; 0x1.b7ca05032a00cp-3 ]
    (draws 3 (fun () -> Gpusim.Rng.float t));
  let t = Gpusim.Rng.create 13 in
  Alcotest.(check (list int)) "int 10" [ 0; 8; 8; 1; 6 ]
    (draws 5 (fun () -> Gpusim.Rng.int t 10));
  Alcotest.(check (list int)) "int 1000" [ 46; 709; 586 ]
    (draws 3 (fun () -> Gpusim.Rng.int t 1000));
  let t = Gpusim.Rng.create 17 in
  Alcotest.(check (list bool)) "chance 0.3"
    [ true; false; false; true; false; false; true; false ]
    (draws 8 (fun () -> Gpusim.Rng.chance t 0.3));
  Alcotest.(check (list int)) "subseed" [ 640077764; 252460823; 574671651 ]
    [ Gpusim.Rng.subseed 42 0; Gpusim.Rng.subseed 42 5;
      Gpusim.Rng.subseed 123456 17 ]

let test_chance_extremes () =
  let t = Gpusim.Rng.create 3 in
  for _ = 1 to 20 do
    Alcotest.(check bool) "p=0 never" false (Gpusim.Rng.chance t 0.0);
    Alcotest.(check bool) "p=1 always" true (Gpusim.Rng.chance t 1.0)
  done

let () =
  Alcotest.run "rng"
    [ ( "unit",
        [ Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_copy_independent;
          Alcotest.test_case "split" `Quick test_split_independent;
          Alcotest.test_case "uniformity" `Quick test_uniformity;
          Alcotest.test_case "chance extremes" `Quick test_chance_extremes ] );
      ( "vectors",
        [ Alcotest.test_case "create, reseed" `Quick test_kat_create_reseed;
          Alcotest.test_case "copy, split" `Quick test_kat_copy_split;
          Alcotest.test_case "bits30, float, int, chance, subseed" `Quick
            test_kat_derived ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_int_bounds; prop_int_in_bounds; prop_float_unit;
            prop_shuffle_permutation; prop_sample_distinct ] ) ]
