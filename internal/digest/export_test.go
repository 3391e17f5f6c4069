package digest

// RadixMinLen lets the external tests place blocks on both sides of the
// comparison-sort/radix-sort threshold.
const RadixMinLen = radixMinLen
