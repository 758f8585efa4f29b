(* Umbrella module: [Rtrt_plancache.Cache], [Rtrt_plancache.Fingerprint],
   [Rtrt_plancache.Tuned]. [Store], the two tiers both caches sit on,
   stays internal. *)

module Fingerprint = Fingerprint
module Cache = Cache
module Tuned = Tuned
