// The benchmark is a module of its own so that it builds from its own
// directory; the replace directive binds it to the checkout it sits in.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
