/* A SIGPROF program-counter sampler, loaded with LD_PRELOAD by
 * scripts/profile.sh.
 *
 * With SIGPROF_OUT set, every SIGPROF_US microseconds of CPU time
 * (default 4000) it records the interrupted program counter. At exit it
 * writes SIGPROF_OUT.<pid>: one line per sample inside the executable, as
 * a 16-digit hex address relative to the executable's own load base (so
 * `nm`/`addr2line` on the binary resolve it whatever ASLR chose for this
 * process), then a `# outside N` line counting samples in shared
 * libraries or the kernel's vDSO. Each process writes its own file. */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 20)
static uintptr_t pcs[MAX_SAMPLES];
static unsigned long taken;

static void on_sigprof(int sig, siginfo_t *info, void *ctx) {
    ucontext_t *uc = ctx;
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    (void)sig, (void)info;
    if (i < MAX_SAMPLES) {
#if defined(__x86_64__)
        pcs[i] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
        pcs[i] = (uintptr_t)uc->uc_mcontext.pc;
#endif
    }
}

/* The first object dl_iterate_phdr reports is the executable. */
static int executable_range(struct dl_phdr_info *info, size_t size, void *out) {
    uintptr_t *r = out; /* bias, lo, hi */
    (void)size;
    r[0] = info->dlpi_addr;
    for (int k = 0; k < info->dlpi_phnum; k++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[k];
        if (ph->p_type != PT_LOAD) continue;
        uintptr_t lo = info->dlpi_addr + ph->p_vaddr, hi = lo + ph->p_memsz;
        if (r[1] == 0 || lo < r[1]) r[1] = lo;
        if (hi > r[2]) r[2] = hi;
    }
    return 1;
}

__attribute__((constructor)) static void start(void) {
    const char *us = getenv("SIGPROF_US");
    long period = us ? atol(us) : 4000;
    struct sigaction sa = {0};
    if (!getenv("SIGPROF_OUT") || period <= 0) return;
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it = {{period / 1000000, period % 1000000}, {period / 1000000, period % 1000000}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void stop(void) {
    const char *out = getenv("SIGPROF_OUT");
    struct itimerval off = {{0, 0}, {0, 0}};
    uintptr_t range[3] = {0, 0, 0};
    unsigned long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES, outside = 0;
    char path[4096];
    if (!out) return;
    setitimer(ITIMER_PROF, &off, NULL);
    dl_iterate_phdr(executable_range, range);
    snprintf(path, sizeof path, "%s.%ld", out, (long)getpid());
    FILE *f = fopen(path, "w");
    if (!f) return;
    for (unsigned long i = 0; i < n; i++) {
        if (pcs[i] >= range[1] && pcs[i] < range[2])
            fprintf(f, "%016lx\n", (unsigned long)(pcs[i] - range[0]));
        else
            outside++;
    }
    fprintf(f, "# outside %lu\n", outside);
    fclose(f);
}
