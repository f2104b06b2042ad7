; gather.s — 64 independent random gathers through an index array.
; The SST showcase: the ahead strand computes every gather address from
; the (L1-resident after first touch) index array and floods the MSHRs.
; Run: asm_playground file=examples/kernels/gather.s preset=sst2 trace=true
; (the event log shows the trigger, then defer lines as the ahead
; strand runs past each gather, then their replays)
    li   x5, 0x200000        ; idx[]
    li   x6, 0x400000        ; table (sparse pages)
    li   x7, 64
    li   x9, 0
    li   x10, 0
loop:
    slli x11, x10, 3
    add  x11, x11, x5
    ld   x12, 0(x11)         ; index (sequential, hits after fill)
    slli x12, x12, 12        ; pick a 4 KB-aligned slot
    add  x12, x12, x6
    ld   x13, 0(x12)         ; the gather: independent miss
    add  x9, x9, x13
    addi x10, x10, 1
    bne  x10, x7, loop
    li   x30, 0x1f0000
    st   x9, 0(x30)
    halt
    .data 0x200000
    .word 5, 17, 3, 29, 11, 41, 23, 7
    .word 37, 2, 19, 47, 13, 31, 43, 53
    .word 8, 26, 50, 14, 38, 20, 44, 32
    .word 56, 4, 28, 52, 16, 40, 22, 46
    .word 10, 34, 58, 6, 30, 54, 18, 42
    .word 24, 48, 12, 36, 60, 0, 27, 51
    .word 15, 39, 63, 9, 33, 57, 21, 45
    .word 1, 25, 49, 35, 59, 55, 61, 62
