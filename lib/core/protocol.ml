type outcome = { alice : Iset.t; bob : Iset.t; cost : Commsim.Cost.t }

type t = {
  name : string;
  sandwich : bool;
  run : Prng.Rng.t -> universe:int -> Iset.t -> Iset.t -> outcome;
}

let exact outcome ~s ~t =
  let expected = Iset.inter s t in
  Iset.equal outcome.alice expected && Iset.equal outcome.bob expected

let validate_inputs ~universe s t =
  let check_one name set =
    if not (Iset.is_valid set) then invalid_arg ("Protocol: " ^ name ^ " is not a sorted set");
    if Array.length set > 0 && (set.(0) < 0 || set.(Array.length set - 1) >= universe) then
      invalid_arg ("Protocol: " ^ name ^ " outside universe")
  in
  check_one "S" s;
  check_one "T" t;
  if universe < 1 || universe > 1 lsl 60 then invalid_arg "Protocol: universe out of range"

module For_testing = struct
  let sandwich_holds outcome ~s ~t =
    let expected = Iset.inter s t in
    Iset.subset expected outcome.alice
    && Iset.subset outcome.alice s
    && Iset.subset expected outcome.bob
    && Iset.subset outcome.bob t
end
