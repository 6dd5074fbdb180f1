#include "host.hpp"

#include <sched.h>
#include <sys/utsname.h>

#include <fstream>
#include <sstream>

#include "report.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string first_line_with(const char* path, const std::string& prefix) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(prefix, 0) == 0) return line;
  return "";
}

/// Filesystem type of the mount holding `path`: the longest mount point
/// in /proc/self/mountinfo that prefixes it.
std::string filesystem_of(const std::filesystem::path& path) {
  std::error_code ec;
  const std::string target = std::filesystem::weakly_canonical(path, ec).string();
  std::ifstream in("/proc/self/mountinfo");
  std::string line, best_type = "unknown";
  std::size_t best_len = 0;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string id, parent, dev, root, mount_point, token;
    fields >> id >> parent >> dev >> root >> mount_point;
    while (fields >> token && token != "-") {
    }
    std::string fs_type;
    fields >> fs_type;
    const bool prefix = target.rfind(mount_point, 0) == 0 &&
                        (mount_point == "/" || target.size() == mount_point.size() ||
                         target[mount_point.size()] == '/');
    if (prefix && mount_point.size() >= best_len) {
      best_len = mount_point.size();
      best_type = fs_type;
    }
  }
  return best_type;
}

}  // namespace

HostRecord read_host(const std::filesystem::path& workdir) {
  HostRecord host;
  cpu_set_t set;
  CPU_ZERO(&set);
  host.nproc = sched_getaffinity(0, sizeof set, &set) == 0
                   ? static_cast<unsigned>(CPU_COUNT(&set))
                   : 0;
  const std::string model = first_line_with("/proc/cpuinfo", "model name");
  const auto colon = model.find(':');
  host.cpu_model = colon == std::string::npos ? "unknown" : model.substr(colon + 2);
  std::ifstream loadavg("/proc/loadavg");
  std::string one, five, fifteen;
  loadavg >> one >> five >> fifteen;
  host.loadavg = one + " " + five + " " + fifteen;
  utsname name{};
  host.os_kernel = uname(&name) == 0 ? name.release : "unknown";
  host.build_type = PERFBENCH_BUILD_TYPE;
  host.compiler = __VERSION__;
  host.journal_fs = filesystem_of(workdir);
  return host;
}

std::string host_json(const HostRecord& host, const std::string& kernel) {
  JsonObject o;
  o.num("nproc", host.nproc)
      .str("cpu_model", host.cpu_model)
      .str("loadavg_start", host.loadavg)
      .str("os_kernel", host.os_kernel)
      .str("build_type", host.build_type)
      .str("compiler", host.compiler)
      .str("inference_kernel", kernel)
      .str("journal_fs", host.journal_fs);
  return o.text();
}

}  // namespace perfbench
