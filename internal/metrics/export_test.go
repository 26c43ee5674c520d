package metrics

// NumDetailKinds lets the external render test insist on one row per kind.
const NumDetailKinds = int(numDetailKinds)
