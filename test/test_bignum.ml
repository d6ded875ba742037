(* Unit and property tests for the big-natural arithmetic backing the
   PRIME labeling baseline. *)

open Lxu_baselines

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let bn = Bignum.of_int

let test_of_to_int () =
  check_int "zero" 0 (Option.get (Bignum.to_int_opt Bignum.zero));
  check_int "one" 1 (Option.get (Bignum.to_int_opt Bignum.one));
  check_int "roundtrip" 123456789 (Option.get (Bignum.to_int_opt (bn 123456789)));
  check_int "max_int" max_int (Option.get (Bignum.to_int_opt (bn max_int)))

let test_of_int_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Bignum.of_int: negative")
    (fun () -> ignore (bn (-1)))

let test_compare () =
  check_int "eq" 0 (Bignum.compare (bn 42) (bn 42));
  check_bool "lt" true (Bignum.compare (bn 41) (bn 42) < 0);
  check_bool "gt" true (Bignum.compare (bn 43) (bn 42) > 0);
  check_bool "different lengths" true
    (Bignum.compare (bn max_int) (bn 1) > 0)

let test_add_carry_chain () =
  (* (2^62 - 1) + 1 = 2^62 crosses two limb boundaries. *)
  let a = bn max_int and b = Bignum.one in
  check_string "max_int+1" "4611686018427387904" Bignum.(to_string (add a b))

let test_sub () =
  check_string "simple" "1" Bignum.(to_string (sub (bn 43) (bn 42)));
  check_string "borrow" (string_of_int (max_int - 1))
    Bignum.(to_string (sub (bn max_int) Bignum.one));
  check_bool "self" true (Bignum.is_zero (Bignum.sub (bn 7) (bn 7)));
  Alcotest.check_raises "underflow" Bignum.Underflow (fun () ->
      ignore (Bignum.sub (bn 1) (bn 2)))

let test_mul_known () =
  check_string "big square"
    "21267647932558653957237540927630737409"
    Bignum.(to_string (mul (bn max_int) (bn max_int)))

let test_mul_small () =
  let a = bn 1_000_000_007 in
  check_string "by 3" "3000000021" Bignum.(to_string (mul_small a 3));
  check_bool "by 0" true (Bignum.is_zero (Bignum.mul_small a 0))

let test_divmod () =
  let a = Bignum.of_string "123456789012345678901234567890" in
  let b = Bignum.of_string "9876543210987654321" in
  let q, r = Bignum.divmod a b in
  check_string "quotient" "12499999886" (Bignum.to_string q);
  check_string "remainder" "925925941327160484" (Bignum.to_string r);
  (* Verify a = q*b + r. *)
  check_string "recompose" (Bignum.to_string a)
    Bignum.(to_string (add (mul q b) r))

let test_divmod_small () =
  let a = Bignum.of_string "1000000000000000000000" in
  let q, r = Bignum.divmod_small a 7 in
  check_string "quotient" "142857142857142857142" (Bignum.to_string q);
  check_int "remainder" 6 r

let test_divisible () =
  let a = Bignum.mul (bn 6700417) (bn 998244353) in
  check_bool "factor" true (Bignum.divisible a ~by:(bn 6700417));
  check_bool "non-factor" false (Bignum.divisible a ~by:(bn 11))

let test_string_roundtrip () =
  let cases = [ "0"; "1"; "999999999"; "1000000000"; "123456789012345678901234567890" ] in
  List.iter (fun s -> check_string s s Bignum.(to_string (of_string s))) cases

let test_of_string_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Bignum.of_string: empty")
    (fun () -> ignore (Bignum.of_string ""));
  Alcotest.check_raises "alpha" (Invalid_argument "Bignum.of_string: not a digit")
    (fun () -> ignore (Bignum.of_string "12a"))

let test_bit_length () =
  check_int "zero" 0 (Bignum.bit_length Bignum.zero);
  check_int "one" 1 (Bignum.bit_length Bignum.one);
  check_int "255" 8 (Bignum.bit_length (bn 255));
  check_int "256" 9 (Bignum.bit_length (bn 256))

(* --- primes ------------------------------------------------------- *)

let test_prime_stream () =
  let g = Prime_gen.create () in
  let first = List.init 10 (fun i -> Prime_gen.nth g i) in
  Alcotest.(check (list int)) "first ten" [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29 ] first;
  check_int "nth big" 541 (Prime_gen.nth g 99);
  check_int "count" 100 (Prime_gen.count g)

let test_prime_next () =
  let g = Prime_gen.create () in
  check_int "first" 2 (Prime_gen.next g);
  check_int "second" 3 (Prime_gen.next g);
  check_int "third" 5 (Prime_gen.next g)

let test_is_prime () =
  check_bool "2" true (Prime_gen.is_prime 2);
  check_bool "1" false (Prime_gen.is_prime 1);
  check_bool "9" false (Prime_gen.is_prime 9);
  check_bool "7919" true (Prime_gen.is_prime 7919)

(* --- CRT ---------------------------------------------------------- *)

let test_crt_simple () =
  (* x = 2 mod 3, x = 3 mod 5, x = 2 mod 7 -> x = 23 mod 105 *)
  let v, m = Crt.solve [ (2, 3); (3, 5); (2, 7) ] in
  check_string "value" "23" (Bignum.to_string v);
  check_string "modulus" "105" (Bignum.to_string m)

let test_crt_residues () =
  let pairs = [ (1, 2); (2, 3); (4, 5); (6, 7); (10, 11); (12, 13) ] in
  let v, _ = Crt.solve pairs in
  List.iter
    (fun (r, p) -> check_int (Printf.sprintf "mod %d" p) r (Crt.residue v p))
    pairs

let test_inverse_mod () =
  check_int "3 mod 7" 5 (Crt.inverse_mod 3 7);
  check_int "10 mod 17" 12 (Crt.inverse_mod 10 17);
  Alcotest.check_raises "not coprime"
    (Invalid_argument "Crt.inverse_mod: not coprime") (fun () ->
      ignore (Crt.inverse_mod 6 9))

(* --- properties ---------------------------------------------------- *)

let nat_gen = QCheck2.Gen.(map abs int)
let nat_pair = QCheck2.Gen.(pair nat_gen nat_gen)

let prop_add_commutes =
  QCheck2.Test.make ~name:"bignum add commutes" ~count:500 nat_pair (fun (a, b) ->
      Bignum.(equal (add (bn a) (bn b)) (add (bn b) (bn a))))

let prop_addsub_roundtrip =
  QCheck2.Test.make ~name:"bignum (a+b)-b = a" ~count:500 nat_pair (fun (a, b) ->
      Bignum.(equal (sub (add (bn a) (bn b)) (bn b)) (bn a)))

let prop_mul_matches_int =
  let small = QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 1_000_000)) in
  QCheck2.Test.make ~name:"bignum mul matches native" ~count:500 small
    (fun (a, b) -> Bignum.(equal (mul (bn a) (bn b)) (bn (a * b))))

let prop_divmod_recompose =
  let gen = QCheck2.Gen.(pair nat_gen (map (fun n -> 1 + abs n) int)) in
  QCheck2.Test.make ~name:"bignum divmod recomposes" ~count:500 gen
    (fun (a, b) ->
      let q, r = Bignum.divmod (bn a) (bn b) in
      Bignum.(equal (add (mul q (bn b)) r) (bn a)) && Bignum.compare r (bn b) < 0)

let prop_string_roundtrip =
  QCheck2.Test.make ~name:"bignum decimal roundtrip" ~count:500 nat_gen (fun a ->
      Bignum.(equal (of_string (to_string (bn a))) (bn a)))

let prop_crt_recovers_orders =
  (* Random residues against the first k primes: CRT must recover them. *)
  let gen =
    QCheck2.Gen.(int_range 1 12 >>= fun k -> list_size (return k) (int_bound 1000))
  in
  QCheck2.Test.make ~name:"crt recovers all residues" ~count:200 gen (fun rs ->
      let g = Prime_gen.create () in
      let pairs = List.mapi (fun i r -> (r mod Prime_gen.nth g i, Prime_gen.nth g i)) rs in
      let v, _ = Crt.solve pairs in
      List.for_all (fun (r, p) -> Crt.residue v p = r) pairs)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_add_commutes;
      prop_addsub_roundtrip;
      prop_mul_matches_int;
      prop_divmod_recompose;
      prop_string_roundtrip;
      prop_crt_recovers_orders;
    ]

let suite =
  [
    Alcotest.test_case "of/to int" `Quick test_of_to_int;
    Alcotest.test_case "of_int negative" `Quick test_of_int_negative;
    Alcotest.test_case "compare" `Quick test_compare;
    Alcotest.test_case "add carry chain" `Quick test_add_carry_chain;
    Alcotest.test_case "sub" `Quick test_sub;
    Alcotest.test_case "mul known value" `Quick test_mul_known;
    Alcotest.test_case "mul_small" `Quick test_mul_small;
    Alcotest.test_case "divmod" `Quick test_divmod;
    Alcotest.test_case "divmod_small" `Quick test_divmod_small;
    Alcotest.test_case "divisible" `Quick test_divisible;
    Alcotest.test_case "decimal roundtrip" `Quick test_string_roundtrip;
    Alcotest.test_case "of_string invalid" `Quick test_of_string_invalid;
    Alcotest.test_case "bit_length" `Quick test_bit_length;
    Alcotest.test_case "prime stream" `Quick test_prime_stream;
    Alcotest.test_case "prime next" `Quick test_prime_next;
    Alcotest.test_case "is_prime" `Quick test_is_prime;
    Alcotest.test_case "crt simple" `Quick test_crt_simple;
    Alcotest.test_case "crt residues" `Quick test_crt_residues;
    Alcotest.test_case "inverse_mod" `Quick test_inverse_mod;
  ]
  @ props

let test_divmod_edges () =
  let a = Bignum.of_string "987654321987654321" in
  let q, r = Bignum.divmod a Bignum.one in
  check_bool "div by one" true (Bignum.equal q a && Bignum.is_zero r);
  let q, r = Bignum.divmod a a in
  check_bool "self division" true (Bignum.equal q Bignum.one && Bignum.is_zero r);
  let q, r = Bignum.divmod Bignum.one a in
  check_bool "smaller dividend" true (Bignum.is_zero q && Bignum.equal r Bignum.one);
  Alcotest.check_raises "by zero" Division_by_zero (fun () ->
      ignore (Bignum.divmod a Bignum.zero))

let test_mul_identities () =
  let a = bn 123456 in
  check_bool "by one" true (Bignum.equal (Bignum.mul a Bignum.one) a);
  check_bool "by zero" true (Bignum.is_zero (Bignum.mul a Bignum.zero));
  check_bool "mul_small bound" true
    (match Bignum.mul_small a (1 lsl 31) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_byte_size_grows () =
  check_bool "grows" true
    (Bignum.byte_size (Bignum.of_string "123456789012345678901234567890")
    > Bignum.byte_size (bn 7))

let suite =
  suite
  @ [
      Alcotest.test_case "divmod edges" `Quick test_divmod_edges;
      Alcotest.test_case "mul identities" `Quick test_mul_identities;
      Alcotest.test_case "byte_size" `Quick test_byte_size_grows;
    ]
