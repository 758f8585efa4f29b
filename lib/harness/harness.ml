(** Experiment harness: measurement of (plan, kernel, machine)
    combinations and the drivers that regenerate each of the paper's
    figures. *)

module Experiment = Experiment
module Table = Table
module Figures = Figures
module Ablations = Ablations
module Hotpath = Hotpath
module Inspctime = Inspctime
module Churnbench = Churnbench
module Autotune = Autotune
module Benchdiff = Benchdiff
module Suite = Suite
