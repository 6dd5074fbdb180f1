// The host and build a run measured on, printed with every result so
// each number traces to a machine without prose.
#pragma once

#include <filesystem>
#include <string>

namespace perfbench {

struct HostRecord {
  unsigned nproc = 0;        ///< CPUs this process may run on.
  std::string cpu_model;
  std::string loadavg;       ///< /proc/loadavg 1/5/15-minute figures at start.
  std::string os_kernel;     ///< uname release.
  std::string build_type;
  std::string compiler;
  std::string journal_fs;    ///< Filesystem type holding the work directory.
};

/// Read at start-up (the load average is the one the run began under).
HostRecord read_host(const std::filesystem::path& workdir);

std::string host_json(const HostRecord& host, const std::string& kernel);

}  // namespace perfbench
