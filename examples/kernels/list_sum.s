; list_sum.s — sum the payloads of a 16-node linked list whose nodes
; sit 4 KB apart: every hop is a dependent L1 miss, and the loop branch
; depends on the missed pointer. This is SST's adversarial corner: no
; technique can overlap the chain, the nodes alias to two cache sets
; (thrash), and the loop-exit branch is deferred 15 nodes past the
; front checkpoint — so its (inevitable) mispredict discards the whole
; region. Expect sst2 to run SLOWER than inorder here; run with
; trace=true to watch the rollback lines (arg=0: branch mispredict) in the
; event log. pointer_chase (the bench version) avoids the aliasing and shows
; parity instead.
; Run: asm_playground file=examples/kernels/list_sum.s preset=sst2 trace=true
    li   x5, 0x300000        ; head
    li   x9, 0               ; sum
loop:
    ld   x6, 8(x5)           ; payload
    add  x9, x9, x6
    ld   x5, 0(x5)           ; next (dependent miss)
    bne  x5, x0, loop
    li   x30, 0x1f0000
    st   x9, 0(x30)
    halt
    .data 0x300000
    .word 0x301000, 1
    .space 4080
    .word 0x302000, 2
    .space 4080
    .word 0x303000, 3
    .space 4080
    .word 0x304000, 4
    .space 4080
    .word 0x305000, 5
    .space 4080
    .word 0x306000, 6
    .space 4080
    .word 0x307000, 7
    .space 4080
    .word 0x308000, 8
    .space 4080
    .word 0x309000, 9
    .space 4080
    .word 0x30a000, 10
    .space 4080
    .word 0x30b000, 11
    .space 4080
    .word 0x30c000, 12
    .space 4080
    .word 0x30d000, 13
    .space 4080
    .word 0x30e000, 14
    .space 4080
    .word 0x30f000, 15
    .space 4080
    .word 0, 16
