(* The seven topology instances every cross-topology suite runs
   against: grids, fat trees and dragonflies under both routing modes.
   Adding a topology here adds it to the invariant matrix in
   test_topology.ml and to the placement oracle in test_mapping.ml. *)

open Machine

let all =
  [
    ("mesh4x8", Topology.mesh2d ~p:4 ~q:8);
    ("torus8x8", Topology.make ~torus:true [| 8; 8 |]);
    ("torus4x4x2", Topology.torus3d ~p:4 ~q:4 ~r:2);
    ("fattree2x4", Topology.fat_tree ~levels:2 ~arity:4);
    ("fattree3x2", Topology.fat_tree ~levels:3 ~arity:2);
    ("dragonfly-minimal", Topology.dragonfly ~groups:4 ~routers:4 ~hosts:2 ());
    ( "dragonfly-adaptive",
      Topology.dragonfly ~routing:(Topology.Valiant 7) ~groups:4 ~routers:4
        ~hosts:2 () );
  ]
