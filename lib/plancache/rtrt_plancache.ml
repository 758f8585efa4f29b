(* Umbrella module: [Rtrt_plancache.Cache], [Rtrt_plancache.Fingerprint],
   [Rtrt_plancache.Tuned], [Rtrt_plancache.Disk_write]. *)

module Fingerprint = Fingerprint
module Cache = Cache
module Tuned = Tuned
module Disk_write = Disk_write
