// Program-counter sampler for scripts/hostprof.sh.
//
// Preloaded into the profiled program with LD_PRELOAD, so the program is
// built and run unchanged. When HOSTPROF_OUT names a file, a constructor
// arms ITIMER_PROF (CPU time, user and system). The SIGPROF handler stores
// the interrupted program counter in a fixed array: no allocation, no lock,
// nothing but async-signal-safe work. At exit a destructor stops the timer
// and writes one line per sample to HOSTPROF_OUT:
//   exe <hex address>        a pc inside the main executable, as an address
//                            of the ELF file (load bias removed), ready for
//                            addr2line -e <program>;
//   lib <object> <symbol>    a pc in a shared library (libc, libstdc++...).
#define _GNU_SOURCE
#include <dlfcn.h>
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

enum { kMaxSamples = 1 << 20, kMaxSegments = 16 };

static uintptr_t samples[kMaxSamples];
static volatile sig_atomic_t num_samples = 0;

static void OnProf(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = (const ucontext_t*)context;
#if defined(__x86_64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "hostprof_sampler.c: no program counter for this architecture"
#endif
  if (num_samples < kMaxSamples) samples[num_samples++] = pc;
}

// The main executable's load bias and loaded segments, found at exit.
struct ExeMap {
  uintptr_t bias;
  uintptr_t begin[kMaxSegments];
  uintptr_t end[kMaxSegments];
  int segments;
};

static int FindExe(struct dl_phdr_info* info, size_t size, void* data) {
  (void)size;
  struct ExeMap* map = (struct ExeMap*)data;
  // The first object dl_iterate_phdr reports is the main program.
  map->bias = info->dlpi_addr;
  for (int i = 0; i < info->dlpi_phnum && map->segments < kMaxSegments; ++i) {
    const ElfW(Phdr)* ph = &info->dlpi_phdr[i];
    if (ph->p_type != PT_LOAD) continue;
    map->begin[map->segments] = info->dlpi_addr + ph->p_vaddr;
    map->end[map->segments] = info->dlpi_addr + ph->p_vaddr + ph->p_memsz;
    ++map->segments;
  }
  return 1;  // stop after the main program
}

__attribute__((constructor)) static void StartSampling(void) {
  if (getenv("HOSTPROF_OUT") == NULL) return;
  struct sigaction action;
  memset(&action, 0, sizeof(action));
  action.sa_sigaction = OnProf;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, NULL);
  // Asks for 1 ms; the kernel rounds up to its tick (4 ms at HZ=250).
  struct itimerval timer = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &timer, NULL);
}

__attribute__((destructor)) static void WriteSamples(void) {
  const char* path = getenv("HOSTPROF_OUT");
  if (path == NULL) return;
  struct itimerval off;
  memset(&off, 0, sizeof(off));
  setitimer(ITIMER_PROF, &off, NULL);
  FILE* out = fopen(path, "w");
  if (out == NULL) {
    perror(path);
    return;
  }
  struct ExeMap map;
  memset(&map, 0, sizeof(map));
  dl_iterate_phdr(FindExe, &map);
  for (sig_atomic_t i = 0; i < num_samples; ++i) {
    const uintptr_t pc = samples[i];
    int in_exe = 0;
    for (int s = 0; s < map.segments; ++s) in_exe |= pc >= map.begin[s] && pc < map.end[s];
    if (in_exe) {
      fprintf(out, "exe %lx\n", (unsigned long)(pc - map.bias));
      continue;
    }
    Dl_info where;
    const int found = dladdr((void*)pc, &where);
    const char* object = found && where.dli_fname != NULL ? where.dli_fname : "?";
    const char* slash = strrchr(object, '/');
    fprintf(out, "lib %s %s\n", slash != NULL ? slash + 1 : object,
            found && where.dli_sname != NULL ? where.dli_sname : "?");
  }
  fclose(out);
}
