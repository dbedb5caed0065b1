// rusage_run: runs a program and records its own resource usage.
//
//   rusage_run FILE PROGRAM [ARGS...]
//
// Forks PROGRAM, waits for it, writes "<maxrss_kb> <user_s> <system_s>" for
// it (and the children it waited for) to FILE, and exits with its status
// (128 + signal number if a signal ended it). Linux carries a process's peak
// RSS across fork and exec, so a program spawned straight from the Python
// benchmark script would report the script's peak as its own; spawned from
// this small process it reports its own.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: rusage_run FILE PROGRAM [ARGS...]\n");
    return 2;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("rusage_run: fork");
    return 2;
  }
  if (pid == 0) {
    execvp(argv[2], argv + 2);
    std::perror("rusage_run: exec");
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      std::perror("rusage_run: wait4");
      return 2;
    }
  }
  std::FILE* out = std::fopen(argv[1], "w");
  if (out == nullptr) {
    std::perror("rusage_run: open");
    return 2;
  }
  std::fprintf(out, "%ld %ld.%06ld %ld.%06ld\n", usage.ru_maxrss,
               static_cast<long>(usage.ru_utime.tv_sec),
               static_cast<long>(usage.ru_utime.tv_usec),
               static_cast<long>(usage.ru_stime.tv_sec),
               static_cast<long>(usage.ru_stime.tv_usec));
  if (std::fclose(out) != 0) {
    std::perror("rusage_run: write");
    return 2;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}
