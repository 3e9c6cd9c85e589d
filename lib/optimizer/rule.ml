(* Re-export of [Dsl.Rule]: rules live in [lib/dsl] so the rewrite DSL can
   compile to [Rule.t] without a dependency cycle, while the optimizer's
   clients — the engine, the registry, the benchmark harness — keep
   naming [Optimizer.Rule.t]. *)
include Dsl.Rule
