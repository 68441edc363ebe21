let cost = Commsim.Cost.add_seq
let costs ~players l = List.fold_left cost (Commsim.Cost.zero ~players) l

let metrics registries =
  let into = Obsv.Metrics.create () in
  List.iter (fun r -> Obsv.Metrics.merge_into ~into r) registries;
  into
